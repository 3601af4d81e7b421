package experiments

import (
	"fmt"
	"time"

	"smarco/internal/chip"
	"smarco/internal/kernels"
	"smarco/internal/runner"
	"smarco/internal/sampling"
)

// EngineSampledWorkload describes the fixed workload of the
// sampled-vs-detailed A/B (smarcobench -engine). The task count scales
// with the chip's thread count so the schedule holds at least two
// saturated windows above the chip's batch floor (2·(threads + 8·cores)
// detailed tasks per window at the default 10% duty needs ≥ 80·threads
// tasks on thread-heavy configurations), and the per-task scale keeps the
// full-detail reference inside the 50M-cycle engine budget.
const EngineSampledWorkload = "kmp seed=1 tasks=80*threads scale=16 budget=50M"

// EngineSampledCadence is the A/B's default sampling cadence: one
// 10k-cycle detailed window per 100k estimated cycles (10% duty), the
// same default the binaries expose as -sample-every/-sample-window. The
// batch floor is raised above the chip default because the medium chip's
// drain warm-up runs long (≈4·threads tasks before an isolated batch
// reaches continuous-run throughput, vs ≈threads + 8·cores on the test
// chips): a 4096-task window puts the inner measurement region past it,
// measured −0.4% vs full detail where floor-default 2048-task windows
// read 5.5% low (DESIGN.md §13, bias sources).
var EngineSampledCadence = sampling.Config{Every: 100_000, Window: 10_000, MinBatch: 4096}

func engineSampledWorkload(cfg chip.Config) *kernels.Workload {
	return kernels.MustNew("kmp", kernels.Config{Seed: 1, Tasks: 80 * cfg.Threads(), Scale: 16})
}

// MeasureEngineSampled runs the sampled-vs-detailed A/B on the named
// configuration: the same workload once at full detail and once under cad
// (zero value selects EngineSampledCadence), both on one partition and
// the 50M-cycle budget. The sampled run's EngineRun carries the
// extrapolated cycle count, its confidence half-width, and the wall-clock
// speedup over the paired detailed run.
func MeasureEngineSampled(config string, cad sampling.Config) (detailed, sampled EngineRun, recs []chip.Record, err error) {
	cfg, err := EngineChipConfig(config)
	if err != nil {
		return
	}
	cfg.Partitions = 1
	if !cad.Enabled() {
		cad = EngineSampledCadence
	}
	if cad.MinBatch == 0 {
		// A caller-supplied cadence still gets the A/B's raised batch floor;
		// see EngineSampledCadence.
		cad.MinBatch = EngineSampledCadence.MinBatch
	}

	run := func(sampCfg sampling.Config) (EngineRun, chip.Record, error) {
		c := cfg
		c.Sampling = sampCfg
		w := engineSampledWorkload(c)
		ch, err := chip.Build(c, w.Mem)
		if err != nil {
			return EngineRun{}, chip.Record{}, err
		}
		ch.Submit(w.Tasks)
		start := time.Now()
		cycles, err := ch.Run(EngineBenchBudget)
		wall := time.Since(start).Seconds()
		if err != nil {
			return EngineRun{}, chip.Record{}, err
		}
		if err := w.Check(); err != nil {
			return EngineRun{}, chip.Record{}, fmt.Errorf("sampled A/B %s: %w", config, err)
		}
		r := EngineRun{
			Config:          config,
			Cycles:          cycles,
			WallSeconds:     wall,
			CyclesPerSec:    float64(cycles) / wall,
			SampledWorkload: true,
		}
		label := fmt.Sprintf("engine %s detailed (sampled A/B)", config)
		if sr := ch.Sampled(); sr != nil {
			r.Sampled = true
			r.EstError = sr.RelErr
			label = fmt.Sprintf("engine %s sampled every=%d window=%d", config, sampCfg.Every, sampCfg.Window)
		}
		return r, ch.Record(label, EngineSampledWorkload), nil
	}

	var rec chip.Record
	if detailed, rec, err = run(sampling.Config{}); err != nil {
		return
	}
	recs = append(recs, rec)
	if sampled, rec, err = run(cad); err != nil {
		return
	}
	recs = append(recs, rec)
	sampled.Speedup = detailed.WallSeconds / sampled.WallSeconds
	return
}

// SampledFanOut measures every detailed window of cfg's sampled schedule
// in parallel on the run-level pool: each worker gets its own chip and
// workload (mk must be deterministic), reconstructs its window's entry
// state by functional warming (chip.RunSampledWindow), and the window
// measurements fold back into the SMARTS estimate in schedule order.
//
// windowBudget bounds each window's own detailed cycles (not the
// estimated-cycle axis a sequential RunSampled budgets on). The result is
// bit-identical at any pool width: runner.Map is order-preserving, every
// worker is deterministic in isolation, and the combining fold is the same
// deterministic float fold the sequential estimator runs.
func SampledFanOut(cfg chip.Config, mk func() *kernels.Workload, windowBudget uint64) (*chip.SampledResult, error) {
	probe := mk()
	pc, err := chip.Build(cfg, probe.Mem)
	if err != nil {
		return nil, err
	}
	pc.Submit(probe.Tasks)
	sched, err := pc.SamplingSchedule()
	if err != nil {
		return nil, err
	}
	wins, err := runner.Map(pool, sched.Windows(), func(i int) (chip.SampledWindow, error) {
		w := mk()
		c, err := chip.Build(cfg, w.Mem)
		if err != nil {
			return chip.SampledWindow{}, err
		}
		c.Submit(w.Tasks)
		return c.RunSampledWindow(i, windowBudget)
	})
	if err != nil {
		return nil, err
	}
	var est sampling.Estimator
	wi := 0
	for _, sp := range sched.Spans {
		if sp.Detailed {
			w := wins[wi]
			est.AddWindow(sampling.Window{Tasks: w.Tasks, Cycles: w.End - w.Start, Rate: w.Rate})
			wi++
		} else {
			est.AddFast(sp.Len())
		}
	}
	r := est.Result()
	return &chip.SampledResult{
		EstCycles:      r.Cycles,
		DetailedCycles: r.Detailed,
		FastTasks:      r.FastTasks,
		RelErr:         r.RelErr,
		Windows:        wins,
	}, nil
}
