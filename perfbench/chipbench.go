package main

import (
	"fmt"
	"os"
	"runtime"

	"smarco/internal/chip"
	"smarco/internal/experiments"
	"smarco/internal/kernels"
)

// chipWorkload is one long verified simulation, repeated. The chip keeps the
// executor settings its base configuration comes with (Parallel, Executor and
// Partitions are not touched), so it measures what chip.DefaultConfig users
// get.
type chipWorkload struct {
	config func() (chip.Config, error)
	kernel string
	inputs func(cfg chip.Config, seed uint64) kernels.Config
}

// mediumKMP is the medium engine-bench chip (8×8 cores, 4 MCs) on classic
// 1-cycle links running streaming kmp, two tasks per core: memory-bound, with
// a barrier every cycle and the cores asleep most of the time, so the engine,
// rings, MACT and DRAM do the work.
var mediumKMP = chipWorkload{
	config: func() (chip.Config, error) { return experiments.EngineChipConfig("medium") },
	kernel: "kmp",
	inputs: func(cfg chip.Config, seed uint64) kernels.Config {
		return kernels.Config{Seed: seed, Tasks: 2 * cfg.Cores(), Scale: 256}
	},
}

// paperKMeans is the paper's 256-core, 2048-thread chip on the reference
// DRAM-8/MainRing-2/SubRing-2/Credit-1 latency profile running SPM-staged
// kmeans, one task per hardware thread: TCG core ticks dominate, shards run
// per-shard windows, and the build is the largest of any workload.
var paperKMeans = chipWorkload{
	config: func() (chip.Config, error) {
		cfg := chip.DefaultConfig()
		cfg.DRAMLatency, cfg.MainRingLatency, cfg.SubRingLatency, cfg.CreditLatency = 8, 2, 2, 1
		return cfg, nil
	},
	kernel: "kmeans",
	inputs: func(cfg chip.Config, seed uint64) kernels.Config {
		return kernels.Config{Seed: seed, Tasks: cfg.Threads(), Scale: 48, StageSPM: true}
	},
}

// setupReps is how many set-ups a run times before its simulations, so that
// setup_s is the median of several samples even when few simulations fit.
const setupReps = 8

// phases are the timed calls of one simulation or set-up, in seconds.
type phases struct {
	newS, buildS, submitS, runS, checkS, totalS float64
	cycles                                      uint64
	gcCycles                                    uint32
	allocMB                                     float64
	ledger                                      map[string]float64 // profiled simulations only
}

func (p phases) setupS() float64 { return p.newS + p.buildS + p.submitS }

// setup generates the inputs, builds the chip and submits the tasks.
func (w chipWorkload) setup(b *bench, cfg chip.Config, root, run int, p *phases) (*kernels.Workload, *chip.Chip, error) {
	s := b.spans.begin("kernels.New", root, run)
	wl, err := kernels.New(w.kernel, w.inputs(cfg, b.seed))
	p.newS = b.spans.end(s)
	if err != nil {
		return nil, nil, err
	}
	s = b.spans.begin("chip.Build", root, run)
	c, err := chip.Build(cfg, wl.Mem)
	p.buildS = b.spans.end(s)
	if err != nil {
		return nil, nil, err
	}
	s = b.spans.begin("chip.Submit", root, run)
	c.Submit(wl.Tasks)
	p.submitS = b.spans.end(s)
	return wl, c, nil
}

// setupOnly times one set-up whose chip is then dropped.
func (w chipWorkload) setupOnly(b *bench, cfg chip.Config) (phases, error) {
	var p phases
	runtime.GC()
	run := b.nextRun()
	root := b.spans.begin("setup", -1, run)
	_, _, err := w.setup(b, cfg, root, run, &p)
	p.totalS = b.spans.end(root)
	return p, err
}

// simulate is one operation: set-up, Run and Check. With profile it installs
// the engine's wall-time profiler before Run and fills p.ledger.
func (w chipWorkload) simulate(b *bench, cfg chip.Config, profile bool) (phases, error) {
	var p phases
	runtime.GC() // leave the previous operation's garbage out of this one
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.attempted++
	run := b.nextRun()
	root := b.spans.begin("simulation", -1, run)
	c, err := w.runChecked(b, cfg, root, run, profile, &p)
	p.totalS = b.spans.end(root)
	if err != nil {
		return p, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: simulation %d: %d cycles, run %.3f s, total %.3f s\n", run, p.cycles, p.runS, p.totalS)
	runtime.ReadMemStats(&after)
	p.gcCycles = after.NumGC - before.NumGC
	p.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	b.host.Partitions = partitionCount(c.LoadReport())
	if profile {
		p.ledger = chipLedger(c, p.runS)
		b.profile = c.Profile().Partitions()
	}
	return p, nil
}

func (w chipWorkload) runChecked(b *bench, cfg chip.Config, root, run int, profile bool, p *phases) (*chip.Chip, error) {
	wl, c, err := w.setup(b, cfg, root, run, p)
	if err != nil {
		return nil, err
	}
	if profile {
		c.EnableProfile()
	}
	s := b.spans.begin("chip.Run", root, run)
	p.cycles, err = c.Run(experiments.EngineBenchBudget)
	p.runS = b.spans.end(s)
	if err != nil {
		return nil, err
	}
	s = b.spans.begin("kernels.Check", root, run)
	err = wl.Check()
	p.checkS = b.spans.end(s)
	return c, err
}

// sameCycles is the determinism gate: every simulation of one seed must take
// the cycle count the first one took.
func sameCycles(b *bench, p phases, want uint64) error {
	if p.cycles != want {
		return fmt.Errorf("simulated %d cycles, the first run of seed %d took %d", p.cycles, b.seed, want)
	}
	return nil
}

func (w chipWorkload) run(b *bench) (map[string]float64, error) {
	cfg, err := w.config()
	if err != nil {
		return nil, err
	}
	b.host.Executor = "serial"
	if cfg.EffectiveParallel() {
		b.host.Executor = "parallel"
	}
	if b.traced {
		return w.runTraced(b, cfg)
	}
	var setups, sims []phases
	for i := 0; i < setupReps; i++ {
		p, err := w.setupOnly(b, cfg)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, p)
	}
	var want uint64
	b.repeat(func() float64 {
		p, err := w.simulate(b, cfg, false)
		if err == nil && len(sims) > 0 {
			err = sameCycles(b, p, want)
		}
		if err != nil {
			b.fail(err)
			return p.totalS
		}
		want = p.cycles
		sims = append(sims, p)
		return p.totalS
	})
	if len(sims) == 0 {
		return nil, fmt.Errorf("no simulation succeeded")
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"total_s":          median(sims, func(p phases) float64 { return p.totalS }),
		"setup_s":          median(append(setups, sims...), phases.setupS),
		"sim_cycles_per_s": median(sims, func(p phases) float64 { return float64(p.cycles) / p.runS }),
		"peak_rss_mb":      rss,
	}, nil
}

// runTraced runs one unprofiled simulation as the baseline, then profiled
// ones for the rest of the budget, and reports the ledger. The profiled
// simulations must take the baseline's cycle count.
func (w chipWorkload) runTraced(b *bench, cfg chip.Config) (map[string]float64, error) {
	base, err := w.simulate(b, cfg, false)
	if err != nil {
		b.fail(err)
		return nil, fmt.Errorf("unprofiled baseline: %w", err)
	}
	var traced []phases
	b.repeat(func() float64 {
		p, err := w.simulate(b, cfg, true)
		if err == nil {
			err = sameCycles(b, p, base.cycles)
		}
		if err != nil {
			b.fail(err)
		} else {
			traced = append(traced, p)
		}
		return p.totalS
	})
	if len(traced) == 0 {
		return nil, fmt.Errorf("no profiled simulation succeeded")
	}
	values := map[string]float64{}
	for name := range traced[0].ledger {
		values[name] = median(traced, func(p phases) float64 { return p.ledger[name] })
	}
	all := append([]phases{base}, traced...)
	values["kernels.new_s"] = median(all, func(p phases) float64 { return p.newS })
	values["chip.build_s"] = median(all, func(p phases) float64 { return p.buildS })
	values["chip.submit_s"] = median(all, func(p phases) float64 { return p.submitS })
	values["kernels.check_s"] = median(all, func(p phases) float64 { return p.checkS })
	values["chip.run_s"] = median(traced, func(p phases) float64 { return p.runS })
	values["go.gc_cycles"] = float64(base.gcCycles)
	values["go.alloc_mb"] = base.allocMB
	values["trace.overhead_s"] = median(traced, func(p phases) float64 { return p.totalS }) - base.totalS
	values["runner.workers"] = float64(experiments.PoolWorkers())
	unreached(values)
	return values, nil
}
