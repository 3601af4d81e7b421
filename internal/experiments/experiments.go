// Package experiments contains one harness per table and figure of the
// paper's evaluation (§4), regenerating the same rows/series from the
// simulator. Absolute numbers differ from the authors' testbed (see
// DESIGN.md); each harness exists to reproduce the *shape* of its result.
//
// Every harness takes a Scale: ScaleSmall runs in seconds for tests and
// quick iteration; ScalePaper uses paper-sized configurations for the
// recorded results in EXPERIMENTS.md.
package experiments

import (
	"fmt"

	"smarco/internal/chip"
	"smarco/internal/conv"
	"smarco/internal/kernels"
)

// Scale selects experiment sizing.
type Scale int

// Scales.
const (
	// ScaleSmall: 16-core chip, small shards — seconds per experiment.
	ScaleSmall Scale = iota
	// ScalePaper: the 256-core chip of the paper (minutes per experiment).
	ScalePaper
)

// Benchmarks is the paper's benchmark order.
var Benchmarks = kernels.Names

// chipConfig returns the SmarCo configuration for a scale.
func chipConfig(s Scale) chip.Config {
	if s == ScalePaper {
		return chip.DefaultConfig()
	}
	return chip.SmallConfig()
}

// workloadTasks sizes a benchmark's task count to saturate the chip.
func workloadTasks(s Scale, cfg chip.Config) int {
	if s == ScalePaper {
		return cfg.Threads() // one task per hardware thread
	}
	return 2 * cfg.Cores()
}

// workloadScale sizes per-task work.
func workloadScale(s Scale, name string) int {
	paper := s == ScalePaper
	switch name {
	case "wordcount", "kmp":
		if paper {
			return 2048
		}
		return 512
	case "terasort":
		if paper {
			return 48
		}
		return 24
	case "search":
		if paper {
			return 64
		}
		return 24
	case "kmeans":
		if paper {
			return 32
		}
		return 16
	default: // rnc uses its own packet sizing
		return 0
	}
}

// buildWorkload builds a benchmark instance for a scale, streaming from
// DRAM (the large-dataset mode the MACT and NoC experiments exercise).
func buildWorkload(s Scale, name string, seed uint64) *kernels.Workload {
	cfg := chipConfig(s)
	return kernels.MustNew(name, kernels.Config{
		Seed:  seed,
		Tasks: workloadTasks(s, cfg),
		Scale: workloadScale(s, name),
	})
}

// buildStagedWorkload builds a benchmark with datasets staged into SPM —
// the paper's preferred placement when working sets fit (§3.6), used for
// the machine-comparison experiments.
func buildStagedWorkload(s Scale, name string, seed uint64) *kernels.Workload {
	cfg := chipConfig(s)
	return kernels.MustNew(name, kernels.Config{
		Seed:     seed,
		Tasks:    workloadTasks(s, cfg),
		Scale:    workloadScale(s, name),
		StageSPM: true,
	})
}

// runOnChip executes a workload on a chip built from cfg and returns the
// chip (for metrics) after verifying the output. Harness runs always use
// the serial executor: the sweeps parallelize across whole simulations
// (see pool), where one serial simulation per CPU beats splitting each
// simulation over the same CPUs. Results are identical either way.
func runOnChip(cfg chip.Config, w *kernels.Workload, budget uint64) (*chip.Chip, error) {
	cfg.Executor = "serial"
	c := chip.New(cfg, w.Mem)
	c.Submit(w.Tasks)
	if _, err := c.Run(budget); err != nil {
		return nil, fmt.Errorf("%s on chip: %w", w.Name, err)
	}
	if err := w.Check(); err != nil {
		return nil, fmt.Errorf("%s output: %w", w.Name, err)
	}
	return c, nil
}

// runOnXeon executes a workload on the conventional baseline model with
// threads software threads and verifies its output, as runOnChip does for
// the chip.
func runOnXeon(cfg conv.Config, w *kernels.Workload, threads int) (conv.Result, error) {
	r := conv.Run(cfg, w, threads)
	if err := w.Check(); err != nil {
		return conv.Result{}, fmt.Errorf("%s output on xeon: %w", w.Name, err)
	}
	return r, nil
}

// cycleBudget is generous enough for every scaled experiment.
func cycleBudget(s Scale) uint64 {
	if s == ScalePaper {
		return 80_000_000
	}
	return 20_000_000
}
