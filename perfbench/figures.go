package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"smarco/internal/chip"
	"smarco/internal/experiments"
	"smarco/internal/kernels"
)

// figure is one harness call; each is an operation of figures-small.
type figure struct {
	name string // span name, and the stem of its per-layer metric
	call func(seed uint64) (any, error)
}

var figures = []figure{
	{"experiments.fig17", func(seed uint64) (any, error) { return experiments.Fig17TCGIPC(experiments.ScaleSmall, seed) }},
	{"experiments.fig20", func(seed uint64) (any, error) { return experiments.Fig20MACTComparison(experiments.ScaleSmall, seed) }},
	{"experiments.fig22", func(seed uint64) (any, error) { return experiments.Fig22VsXeon(experiments.ScaleSmall, seed) }},
}

// smallScale is the per-kernel size the harnesses give streaming workloads
// at experiments.ScaleSmall (Fig. 20's inputs).
var smallScale = map[string]int{"wordcount": 512, "terasort": 24, "search": 24, "kmeans": 16, "kmp": 512, "rnc": 0}

// pass is one call of every figure.
type pass struct {
	seconds     []float64 // per figure
	totalS      float64
	fig22Cycles uint64 // simulated SmarCo cycles Fig. 22 reports
	gcCycles    uint32
	allocMB     float64
}

// figureSetup times the set-up every simulation of the harnesses pays before
// its first cycle, done before the first figure call: the six kernels at
// their small-scale size, each built into a small chip and submitted.
func figureSetup(b *bench) (phases, error) {
	var p phases
	runtime.GC()
	cfg := chip.SmallConfig()
	run := b.nextRun()
	root := b.spans.begin("setup", -1, run)
	defer func() { p.totalS = b.spans.end(root) }()
	for _, name := range kernels.Names {
		s := b.spans.begin("kernels.New", root, run)
		wl, err := kernels.New(name, kernels.Config{Seed: b.seed, Tasks: 2 * cfg.Cores(), Scale: smallScale[name]})
		p.newS += b.spans.end(s)
		if err != nil {
			return p, err
		}
		s = b.spans.begin("chip.Build", root, run)
		c, err := chip.Build(cfg, wl.Mem)
		p.buildS += b.spans.end(s)
		if err != nil {
			return p, err
		}
		s = b.spans.begin("chip.Submit", root, run)
		c.Submit(wl.Tasks)
		p.submitS += b.spans.end(s)
	}
	return p, nil
}

// runPass calls every figure once. A figure fails when it errors (each
// harness verifies every simulation it runs) or when its results differ
// from the first pass's on the same seed; want holds those results.
func runPass(b *bench, want []string) (pass, bool) {
	p := pass{seconds: make([]float64, len(figures))}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run := b.nextRun()
	root := b.spans.begin("figures", -1, run)
	ok := true
	for i, f := range figures {
		b.attempted++
		s := b.spans.begin(f.name, root, run)
		res, err := f.call(b.seed)
		p.seconds[i] = b.spans.end(s)
		if err == nil {
			err = sameResult(res, &want[i])
		}
		if err != nil {
			b.fail(fmt.Errorf("%s: %w", f.name, err))
			ok = false
			continue
		}
		if rows, isFig22 := res.([]experiments.Fig22Result); isFig22 {
			for _, r := range rows {
				p.fig22Cycles += r.SmarCoChipCycles
			}
		}
	}
	p.totalS = b.spans.end(root)
	fmt.Fprintf(os.Stderr, "perfbench: pass %d: figures %.3f s, total %.3f s\n", run, p.seconds, p.totalS)
	runtime.ReadMemStats(&after)
	p.gcCycles = after.NumGC - before.NumGC
	p.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	return p, ok
}

// sameResult records a figure's first result in *want and checks later ones
// against it.
func sameResult(res any, want *string) error {
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if *want == "" {
		*want = string(data)
	} else if string(data) != *want {
		return fmt.Errorf("results differ from the first call with the same seed")
	}
	return nil
}

func runFigures(b *bench) (map[string]float64, error) {
	// The harnesses run every simulation on the serial executor and spread
	// simulations over the run pool instead.
	b.host.Executor = "serial"
	b.host.Partitions = 1
	reps := setupReps
	if b.traced {
		reps = 1
	}
	var setups []phases
	for i := 0; i < reps; i++ {
		p, err := figureSetup(b)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, p)
	}
	want := make([]string, len(figures))
	var passes []pass
	b.repeat(func() float64 {
		p, ok := runPass(b, want)
		if ok {
			passes = append(passes, p)
		}
		return p.totalS
	})
	if len(passes) == 0 {
		return nil, fmt.Errorf("no pass over the figures succeeded")
	}
	fig22 := len(figures) - 1
	if !b.traced {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		return map[string]float64{
			"total_s": median(passes, func(p pass) float64 { return p.totalS }),
			"setup_s": median(setups, phases.setupS),
			// Fig. 22 is the only harness that reports its simulated cycles.
			"sim_cycles_per_s": median(passes, func(p pass) float64 { return float64(p.fig22Cycles) / p.seconds[fig22] }),
			"peak_rss_mb":      rss,
		}, nil
	}
	values := map[string]float64{
		"kernels.new_s":   setups[0].newS,
		"chip.build_s":    setups[0].buildS,
		"chip.submit_s":   setups[0].submitS,
		"chip.sim_cycles": float64(passes[0].fig22Cycles),
		"runner.workers":  float64(experiments.PoolWorkers()),
		"go.gc_cycles":    float64(passes[0].gcCycles),
		"go.alloc_mb":     passes[0].allocMB,
		// No profiler is installed: the traced run is the untraced one.
		"trace.overhead_s": 0,
	}
	for i, f := range figures {
		values[f.name+"_s"] = median(passes, func(p pass) float64 { return p.seconds[i] })
	}
	unreached(values)
	return values, nil
}
