// Command smarcobench regenerates the paper's tables and figures from the
// simulator and prints them as text tables.
//
// Usage:
//
//	smarcobench                      # every experiment at small scale
//	smarcobench -scale paper         # paper-sized configurations (slow)
//	smarcobench -only fig17,fig22    # a subset
//	smarcobench -engine              # engine throughput -> BENCH_engine.json
//	smarcobench -suite               # run-pool suite and time-to-figure -> BENCH_suite.json
//	smarcobench -engine-smoke BENCH_floor.json  # CI guard: fail on throughput regression
//	smarcobench -chaos               # chaos resilience ladder on the dual card
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"smarco/internal/chip"
	"smarco/internal/experiments"
	"smarco/internal/sampling"
)

type runner func(scale experiments.Scale, seed uint64) (string, error)

var all = map[string]runner{
	"fig1ab": func(s experiments.Scale, seed uint64) (string, error) {
		r, err := experiments.Fig01ThreadScaling(s, seed)
		if err != nil {
			return "", err
		}
		return experiments.Fig01Table(r).String(), nil
	},
	"fig1cd": func(s experiments.Scale, seed uint64) (string, error) {
		r, err := experiments.Fig01CacheHierarchy(s, seed)
		if err != nil {
			return "", err
		}
		return experiments.Fig01CacheTable(r).String(), nil
	},
	"fig2": func(s experiments.Scale, seed uint64) (string, error) {
		return experiments.Fig02Table(experiments.Fig02CDN(seed)).String(), nil
	},
	"fig8": func(s experiments.Scale, seed uint64) (string, error) {
		rows, err := experiments.Fig08Granularity(seed)
		if err != nil {
			return "", err
		}
		return experiments.Fig08Table(rows).String(), nil
	},
	"fig17": func(s experiments.Scale, seed uint64) (string, error) {
		r, err := experiments.Fig17TCGIPC(s, seed)
		if err != nil {
			return "", err
		}
		return experiments.Fig17Table(r).String(), nil
	},
	"fig18": func(s experiments.Scale, seed uint64) (string, error) {
		r, err := experiments.Fig18HighDensityNoC(s, seed)
		if err != nil {
			return "", err
		}
		return experiments.Fig18Table(r).String(), nil
	},
	"fig19": func(s experiments.Scale, seed uint64) (string, error) {
		r, err := experiments.Fig19MACTThreshold(s, seed)
		if err != nil {
			return "", err
		}
		return experiments.Fig19Table(r).String(), nil
	},
	"fig20": func(s experiments.Scale, seed uint64) (string, error) {
		r, err := experiments.Fig20MACTComparison(s, seed)
		if err != nil {
			return "", err
		}
		return experiments.Fig20Table(r).String(), nil
	},
	"fig21": func(s experiments.Scale, seed uint64) (string, error) {
		r, err := experiments.Fig21Scheduler(s, seed)
		if err != nil {
			return "", err
		}
		return experiments.Fig21Table(r).String(), nil
	},
	"table1": func(s experiments.Scale, seed uint64) (string, error) {
		return experiments.Table1AreaPower().String(), nil
	},
	"table2": func(s experiments.Scale, seed uint64) (string, error) {
		return experiments.Table2Configs().String(), nil
	},
	"fig22": func(s experiments.Scale, seed uint64) (string, error) {
		r, err := experiments.Fig22VsXeon(s, seed)
		if err != nil {
			return "", err
		}
		return experiments.Fig22Table(r, "Fig. 22 — SmarCo vs Xeon E7-8890V4").String(), nil
	},
	"fig23": func(s experiments.Scale, seed uint64) (string, error) {
		r, err := experiments.Fig23Scalability(s, seed)
		if err != nil {
			return "", err
		}
		return experiments.Fig23Table(r).String(), nil
	},
	"fig26": func(s experiments.Scale, seed uint64) (string, error) {
		r, err := experiments.Fig26Prototype(s, seed)
		if err != nil {
			return "", err
		}
		return experiments.Fig22Table(r, "Fig. 26 — prototype (40 nm) vs Xeon E7-8890V4").String(), nil
	},
	"ablations": func(s experiments.Scale, seed uint64) (string, error) {
		r, err := experiments.Ablations(s, seed)
		if err != nil {
			return "", err
		}
		return experiments.AblationTable(r).String(), nil
	},
	"topology": func(s experiments.Scale, seed uint64) (string, error) {
		r, err := experiments.TopologyStudy(s, seed)
		if err != nil {
			return "", err
		}
		return experiments.TopologyTable(r).String(), nil
	},
	"nearmem": func(s experiments.Scale, seed uint64) (string, error) {
		r, err := experiments.NearMemoryMatch(s, seed)
		if err != nil {
			return "", err
		}
		return experiments.NearMemTable(r).String(), nil
	},
}

// order fixes the output sequence.
var order = []string{
	"fig1ab", "fig1cd", "fig2", "fig8", "fig17", "fig18", "fig19",
	"fig20", "fig21", "table1", "table2", "fig22", "fig23", "fig26",
	"ablations", "topology", "nearmem",
}

// engineSnapshot is the BENCH_engine.json schema: one entry per engine
// version, oldest first, so the perf trajectory reads top to bottom.
type engineSnapshot struct {
	Workload string `json:"workload"`
	// SampledWorkload describes the sampled-vs-detailed A/B rows (the runs
	// flagged sampled_workload), which size the task count to the chip's
	// sampling batch floor instead of the throughput sweep's 2-per-core.
	SampledWorkload string        `json:"sampled_workload,omitempty"`
	Entries         []engineEntry `json:"entries"`
}

type engineEntry struct {
	Label string `json:"label"`
	Date  string `json:"date"`
	// Host facts: the CPUs the process could use and the GOMAXPROCS the
	// runs saw, which bound what the parallel rows can show. Entries
	// recorded before they were kept omit them.
	NProc      int                     `json:"nproc,omitempty"`
	GOMAXPROCS int                     `json:"gomaxprocs,omitempty"`
	Runs       []experiments.EngineRun `json:"runs"`
}

// benchEngine measures engine throughput on every config/variant/partition
// triple (one partition, and one per CPU) and appends the results to the
// snapshot file, preserving earlier entries. Variants are the lookahead
// A/B (classic 1-cycle links; 4-cycle links with epochs off; 4-cycle
// links with the full conservative window);
// runs on the same machine must agree on the simulated cycle count, and
// benchEngine fails if they diverge — it doubles as a conformance check.
// With -scale paper the sweep also covers the 256-core paper chip. With
// jsonPath it also writes each run's unified metrics snapshot (the same
// chip.Snapshot schema smarcosim -json emits) as a JSON array. When cad
// requests sampling, the entry also carries the sampled-vs-detailed A/B on
// the medium chip: the same workload at full detail and in sampled mode,
// the sampled row recording the extrapolated cycle count, its confidence
// half-width, and the wall-clock speedup.
func benchEngine(path, label, jsonPath string, paper bool, cad sampling.Config) error {
	var snap engineSnapshot
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &snap); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	snap.Workload = experiments.EngineBenchWorkload
	entry := engineEntry{
		Label:      label,
		Date:       time.Now().Format("2006-01-02"),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	var snapshots []chip.Snapshot
	configs := experiments.EngineBenchConfigs
	if paper {
		configs = append(append([]string{}, configs...), "paper")
	}
	machineCycles := map[string]uint64{} // config+link-latency -> simulated cycles
	for _, config := range configs {
		for _, v := range experiments.EngineBenchVariants {
			for _, parallel := range []bool{false, true} {
				// Best of 3: wall time on a shared host swings by tens of
				// percent run to run; the fastest repeat is the least
				// perturbed one. Cycle identity across repeats is asserted.
				r, s, err := experiments.MeasureEngineVariantBest(config, partitionsFor(parallel), v, 3)
				if err != nil {
					return err
				}
				mode := ""
				if v.Hetero() {
					mode = fmt.Sprintf(" dram=%d mainring=%d subring=%d credit=%d",
						r.DRAMLatency, r.MainRingLatency, r.SubRingLatency, r.CreditLatency)
				}
				if r.Handoffs != nil {
					mode += fmt.Sprintf(" handoffs=%.3f", *r.Handoffs)
				}
				fmt.Printf("%-8s parallel=%-5v linklat=%d lookahead=%d%s cycles=%-10d cycles/sec=%.0f\n",
					r.Config, r.Parallel, r.LinkLatency, r.Lookahead, mode, r.Cycles, r.CyclesPerSec)
				machine := v.MachineKey(config)
				if want, seen := machineCycles[machine]; !seen {
					machineCycles[machine] = r.Cycles
				} else if r.Cycles != want {
					return fmt.Errorf("cycle divergence on %s: parallel=%v lookahead=%d ran %d cycles, earlier runs %d",
						machine, r.Parallel, r.Lookahead, r.Cycles, want)
				}
				entry.Runs = append(entry.Runs, r)
				snapshots = append(snapshots, s)
			}
		}
	}
	if cad.Enabled() {
		snap.SampledWorkload = experiments.EngineSampledWorkload
		det, samp, abSnaps, err := experiments.MeasureEngineSampled("medium", cad)
		if err != nil {
			return err
		}
		fmt.Printf("%-8s sampled A/B detailed: cycles=%-10d wall=%.2fs\n",
			det.Config, det.Cycles, det.WallSeconds)
		fmt.Printf("%-8s sampled A/B sampled:  est=%-10d ±%.2f%% wall=%.2fs speedup=%.2fx\n",
			samp.Config, samp.Cycles, 100*samp.EstError, samp.WallSeconds, samp.Speedup)
		entry.Runs = append(entry.Runs, det, samp)
		snapshots = append(snapshots, abSnaps...)
	}
	snap.Entries = append(snap.Entries, entry)
	raw, err := json.MarshalIndent(&snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	if jsonPath != "" {
		raw, err := json.MarshalIndent(snapshots, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// suiteSnapshot is the BENCH_suite.json schema: the run-level pool's
// wall-clock effect on the heaviest harness grid (the full ablation sweep)
// and on every other figure, one entry per engine version, oldest first.
type suiteSnapshot struct {
	Suite   string       `json:"suite"`
	Entries []suiteEntry `json:"entries"`
}

type suiteEntry struct {
	Label string `json:"label"`
	Date  string `json:"date"`
	// NProc is the CPU count the process could use. Entries recorded
	// before it was kept omit it.
	NProc      int                    `json:"nproc,omitempty"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	Runs       []experiments.SuiteRun `json:"runs"`
	// Speedup is serial wall time over the widest pool's wall time. On a
	// single-CPU host both runs are serial and this sits near 1.
	Speedup float64 `json:"speedup"`
	// Figures is the time-to-figure table: each small-scale figure's wall
	// time at every pool size of Runs (the ablation grid is Runs itself).
	// Entries recorded before it was kept omit it.
	Figures []figureTime `json:"figures,omitempty"`
}

// figureTime is one figure's wall time at one run-pool size.
type figureTime struct {
	Figure      string  `json:"figure"`
	Workers     int     `json:"workers"`
	WallSeconds float64 `json:"wall_seconds"`
}

// timeFigures times every figure but the ablation grid at small scale, at
// each pool size, restoring the pool bound afterwards.
func timeFigures(seed uint64, sizes []int) ([]figureTime, error) {
	defer experiments.SetPoolWorkers(experiments.PoolWorkers())
	var out []figureTime
	for _, name := range order {
		if name == "ablations" {
			continue
		}
		for _, n := range sizes {
			experiments.SetPoolWorkers(n)
			start := time.Now()
			if _, err := all[name](experiments.ScaleSmall, seed); err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			ft := figureTime{Figure: name, Workers: n, WallSeconds: time.Since(start).Seconds()}
			fmt.Printf("figure %-9s workers=%-3d wall=%.2fs\n", ft.Figure, ft.Workers, ft.WallSeconds)
			out = append(out, ft)
		}
	}
	return out, nil
}

// benchSuite times the ablation grid and then every other figure at pool
// sizes 1 and GOMAXPROCS, and appends the measurement to the suite
// snapshot file.
func benchSuite(path, label string, seed uint64) error {
	var snap suiteSnapshot
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &snap); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	snap.Suite = "ablations scale=small (full benchmark x feature grid)"
	entry := suiteEntry{
		Label:      label,
		Date:       time.Now().Format("2006-01-02"),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	sizes := []int{1}
	if gm := runtime.GOMAXPROCS(0); gm > 1 {
		sizes = append(sizes, gm)
	}
	for _, n := range sizes {
		r, err := experiments.MeasureSuite(experiments.ScaleSmall, seed, n)
		if err != nil {
			return err
		}
		fmt.Printf("suite workers=%-3d sims=%-3d wall=%.2fs\n", r.Workers, r.Sims, r.WallSeconds)
		entry.Runs = append(entry.Runs, r)
	}
	entry.Speedup = entry.Runs[0].WallSeconds / entry.Runs[len(entry.Runs)-1].WallSeconds
	figures, err := timeFigures(seed, sizes)
	if err != nil {
		return err
	}
	entry.Figures = figures
	snap.Entries = append(snap.Entries, entry)
	raw, err := json.MarshalIndent(&snap, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// partitionsFor maps the record-only parallel field of BENCH_floor.json
// and BENCH_engine.json rows to chip.Config.Partitions: one partition per
// CPU for a parallel row, one partition otherwise.
func partitionsFor(parallel bool) int {
	if parallel {
		return 0
	}
	return 1
}

// benchFloor is one BENCH_floor.json entry: the reference throughput the
// CI smoke job guards, with the tolerated fractional regression.
// BENCH_floor.json holds either a single floor object (legacy) or an array
// of floors, each measured and enforced independently — the array form is
// how the lookahead A/B (classic vs epoch-fused engine) stays guarded.
type benchFloor struct {
	Config      string `json:"config"`
	Parallel    bool   `json:"parallel"`
	LinkLatency uint64 `json:"link_latency,omitempty"`
	Lookahead   uint64 `json:"lookahead,omitempty"`
	// Per-class latency overrides, mirroring experiments.EngineBenchVariant:
	// heterogeneous floors guard per-shard windows alongside the uniform
	// lookahead A/B.
	DRAMLatency     uint64  `json:"dram_latency,omitempty"`
	MainRingLatency uint64  `json:"mainring_latency,omitempty"`
	SubRingLatency  uint64  `json:"subring_latency,omitempty"`
	CreditLatency   uint64  `json:"credit_latency,omitempty"`
	CyclesPerSec    float64 `json:"cycles_per_sec"`
	// MaxRegress is the tolerated fractional slowdown before the smoke run
	// fails (0 selects 0.30). Generous because CI machines vary widely.
	MaxRegress float64 `json:"max_regress"`
}

// benchSmoke measures every floor in the file and fails if any throughput
// fell more than its tolerance below the recorded reference rate.
func benchSmoke(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var floors []benchFloor
	if err := json.Unmarshal(raw, &floors); err != nil {
		var one benchFloor
		if err := json.Unmarshal(raw, &one); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		floors = []benchFloor{one}
	}
	for _, floor := range floors {
		if floor.MaxRegress == 0 {
			floor.MaxRegress = 0.30
		}
		v := experiments.EngineBenchVariant{
			LinkLatency:     floor.LinkLatency,
			Lookahead:       floor.Lookahead,
			DRAMLatency:     floor.DRAMLatency,
			MainRingLatency: floor.MainRingLatency,
			SubRingLatency:  floor.SubRingLatency,
			CreditLatency:   floor.CreditLatency,
		}
		// Best of 2 keeps one scheduler hiccup from tripping a CI failure;
		// the generous MaxRegress absorbs the rest.
		r, _, err := experiments.MeasureEngineVariantBest(floor.Config, partitionsFor(floor.Parallel), v, 2)
		if err != nil {
			return err
		}
		limit := floor.CyclesPerSec * (1 - floor.MaxRegress)
		mode := ""
		if v.Hetero() {
			mode = fmt.Sprintf(" dram=%d mainring=%d subring=%d credit=%d",
				r.DRAMLatency, r.MainRingLatency, r.SubRingLatency, r.CreditLatency)
		}
		fmt.Printf("%-8s parallel=%-5v linklat=%d lookahead=%d%s cycles/sec=%.0f (floor %.0f, fail below %.0f)\n",
			r.Config, r.Parallel, r.LinkLatency, r.Lookahead, mode, r.CyclesPerSec, floor.CyclesPerSec, limit)
		if r.CyclesPerSec < limit {
			return fmt.Errorf("engine throughput regression: %.0f cycles/sec is more than %.0f%% below the %.0f floor in %s",
				r.CyclesPerSec, floor.MaxRegress*100, floor.CyclesPerSec, path)
		}
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("smarcobench: ")
	scaleFlag := flag.String("scale", "small", "experiment scale: small or paper")
	only := flag.String("only", "", "comma-separated experiment subset (e.g. fig17,fig22)")
	seed := flag.Uint64("seed", 1, "workload seed")
	list := flag.Bool("list", false, "list experiment names and exit")
	engine := flag.Bool("engine", false, "measure engine throughput and append to -engine-out")
	engineOut := flag.String("engine-out", "BENCH_engine.json", "engine snapshot file")
	engineLabel := flag.String("engine-label", "engine snapshot", "label for the new snapshot entry")
	jsonOut := flag.String("json", "", "with -engine: write unified metrics snapshots (chip.Snapshot array) to FILE")
	suite := flag.Bool("suite", false, "time the ablation suite and every other figure at run-pool sizes 1 and GOMAXPROCS, append to -suite-out")
	suiteOut := flag.String("suite-out", "BENCH_suite.json", "suite snapshot file")
	suiteLabel := flag.String("suite-label", "suite snapshot", "label for the new suite entry")
	smoke := flag.String("engine-smoke", "", "run the CI smoke benchmark against this floor file and exit")
	sampleEvery := flag.Uint64("sample-every", experiments.EngineSampledCadence.Every,
		"with -engine: sampled A/B cadence period in estimated cycles (0 skips the sampled-vs-detailed rows)")
	sampleWindow := flag.Uint64("sample-window", experiments.EngineSampledCadence.Window,
		"with -engine: sampled A/B detailed window length in cycles")
	chaosLadderFlag := flag.Bool("chaos", false, "run the chaos resilience ladder (seeded fault schedules on the dual card)")
	workers := flag.Int("workers", 0, "run-pool worker bound for experiment sweeps (0 = GOMAXPROCS)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to FILE")
	flag.Parse()

	experiments.SetPoolWorkers(*workers)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	if *engine {
		cad := sampling.Config{Every: *sampleEvery, Window: *sampleWindow}
		if err := benchEngine(*engineOut, *engineLabel, *jsonOut, *scaleFlag == "paper", cad); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *suite {
		if err := benchSuite(*suiteOut, *suiteLabel, *seed); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *smoke != "" {
		if err := benchSmoke(*smoke); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *chaosLadderFlag {
		if err := benchChaos(*seed); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *list {
		names := make([]string, 0, len(all))
		for n := range all {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Println(strings.Join(names, "\n"))
		return
	}

	scale := experiments.ScaleSmall
	switch *scaleFlag {
	case "small":
	case "paper":
		scale = experiments.ScalePaper
	default:
		log.Fatalf("unknown scale %q (want small or paper)", *scaleFlag)
	}

	selected := order
	if *only != "" {
		selected = nil
		for _, n := range strings.Split(*only, ",") {
			n = strings.TrimSpace(n)
			if _, ok := all[n]; !ok {
				log.Fatalf("unknown experiment %q (use -list)", n)
			}
			selected = append(selected, n)
		}
	}

	for _, name := range selected {
		start := time.Now()
		out, err := all[name](scale, *seed)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Printf("==== %s (%.1fs) ====\n%s\n", name, time.Since(start).Seconds(), out)
	}
}
