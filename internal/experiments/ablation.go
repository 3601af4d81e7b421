package experiments

import (
	"fmt"

	"smarco/internal/chip"
	"smarco/internal/kernels"
	"smarco/internal/runner"
	"smarco/internal/stats"
)

// AblationResult reports the slowdown from disabling one SmarCo feature:
// cycles(without) / cycles(with), per benchmark. Values above 1 mean the
// feature helps.
type AblationResult struct {
	Feature string
	Gain    map[string]float64 // benchmark -> speedup provided by the feature
}

// ablation describes one feature toggle. enable (optional) adjusts the
// "with" configuration for features that are off by default; disable
// produces the "without" configuration.
type ablation struct {
	name    string
	staged  bool // run with SPM-staged datasets
	enable  func(*chip.Config)
	disable func(*chip.Config)
}

var ablations = []ablation{
	{
		name: "in-pair threads",
		// Staged datasets make the run latency-bound, which is the regime
		// in-pair threading targets; the streaming mode is DRAM-bandwidth
		// bound, where thread depth cannot matter.
		staged: true,
		disable: func(c *chip.Config) {
			// Halve thread depth: 4 threads/core, no friend interleaving.
			c.Core.ThreadsPerLane = 1
		},
	},
	{
		name: "MACT",
		disable: func(c *chip.Config) {
			c.MACT.Enabled = false
		},
	},
	{
		name: "high-density slicing",
		disable: func(c *chip.Config) {
			c.SubLink.Conventional = true
			c.MainLink.Conventional = true
		},
	},
	{
		name: "bidirectional flex lanes",
		disable: func(c *chip.Config) {
			// Fold the flex lanes into fixed ones: same peak bandwidth,
			// no per-cycle reallocation (note each direction keeps the
			// paper's fixed share).
			c.SubLink.FlexLanes = 0
			c.MainLink.FlexLanes = 0
		},
	},
	{
		name:   "direct datapath",
		staged: true, // priority traffic dominates in the staged RT mode
		disable: func(c *chip.Config) {
			c.DirectPath = false
		},
	},
	{
		name: "shared instruction segment",
		disable: func(c *chip.Config) {
			c.Core.SharedISeg = false
		},
	},
	{
		name:   "SPM staging",
		staged: true,
		disable: func(c *chip.Config) {
			// Handled by the harness: the "without" run streams instead.
		},
	},
	{
		name: "sequential prefetcher",
		enable: func(c *chip.Config) {
			c.Core.Prefetch = true
		},
		disable: func(c *chip.Config) {},
	},
}

// AblationBenchmarks is the full study grid: one small-granularity, one
// bulk, one real-time benchmark.
var AblationBenchmarks = []string{"kmp", "terasort", "rnc"}

// Ablations measures each feature's contribution on the given benchmarks
// (the full AblationBenchmarks grid when none are named; callers with a
// tight time budget can restrict the grid). The grid's chip runs are
// independent, so they are deduplicated — features whose "with"
// configuration is the stock chip share one baseline run per benchmark —
// and executed on the run pool; results are identical at any pool size.
func Ablations(scale Scale, seed uint64, benchmarks ...string) ([]AblationResult, error) {
	res, _, err := ablationGrid(scale, seed, benchmarks)
	return res, err
}

// ablationGrid is Ablations, also reporting how many distinct chip runs the
// deduplicated grid executed.
func ablationGrid(scale Scale, seed uint64, benchmarks []string) ([]AblationResult, int, error) {
	if len(benchmarks) == 0 {
		benchmarks = AblationBenchmarks
	}
	// One grid slot per distinct (configuration, workload) pair.
	type gridRun struct {
		bench  string
		staged bool
		mutate func(*chip.Config)
	}
	var runs []gridRun
	slot := map[string]int{}
	addRun := func(key, bench string, staged bool, mutate func(*chip.Config)) int {
		k := key + "|" + bench
		if i, ok := slot[k]; ok {
			return i
		}
		slot[k] = len(runs)
		runs = append(runs, gridRun{bench: bench, staged: staged, mutate: mutate})
		return len(runs) - 1
	}
	type cell struct{ with, without int } // indices into runs
	cells := make([]map[string]cell, len(ablations))
	for ai, ab := range ablations {
		cells[ai] = map[string]cell{}
		for _, name := range benchmarks {
			// Features with no enable hook measure "with" on the stock chip:
			// those runs are shared across features (keyed only by staging).
			withKey := fmt.Sprintf("base staged=%t", ab.staged)
			if ab.enable != nil {
				withKey = "with " + ab.name
			}
			stagedOff := ab.staged
			if ab.name == "SPM staging" {
				stagedOff = false
			}
			cells[ai][name] = cell{
				with:    addRun(withKey, name, ab.staged, ab.enable),
				without: addRun("without "+ab.name, name, stagedOff, ab.disable),
			}
		}
	}
	cycles, err := runner.Map(pool, len(runs), func(i int) (uint64, error) {
		r := runs[i]
		cfg := chipConfig(scale)
		// Enough tasks to oversubscribe every hardware context, so features
		// like in-pair threading actually engage. Sized from the unmutated
		// configuration: a feature that shrinks the chip (fewer threads)
		// must still face the same workload.
		w := kernels.MustNew(r.bench, kernels.Config{
			Seed:     seed,
			Tasks:    cfg.Threads() + cfg.Threads()/2,
			Scale:    workloadScale(scale, r.bench),
			StageSPM: r.staged,
		})
		if r.mutate != nil {
			r.mutate(&cfg)
		}
		c, err := runOnChip(cfg, w, 4*cycleBudget(scale))
		if err != nil {
			return 0, fmt.Errorf("ablation run %s: %w", r.bench, err)
		}
		return c.Now(), nil
	})
	if err != nil {
		return nil, len(runs), err
	}
	var out []AblationResult
	for ai, ab := range ablations {
		res := AblationResult{Feature: ab.name, Gain: map[string]float64{}}
		for _, name := range benchmarks {
			cl := cells[ai][name]
			res.Gain[name] = float64(cycles[cl.without]) / float64(cycles[cl.with])
		}
		out = append(out, res)
	}
	return out, len(runs), nil
}

// AblationTable renders the study.
func AblationTable(results []AblationResult) *stats.Table {
	t := stats.NewTable("Ablations — speedup each feature provides (cycles without / cycles with)",
		"feature", "kmp", "terasort", "rnc")
	for _, r := range results {
		t.AddRow(r.Feature, r.Gain["kmp"], r.Gain["terasort"], r.Gain["rnc"])
	}
	return t
}
