// Full-chip conformance: every benchmark's simulated output must equal its
// Go reference across sizes, seeds, and chip shapes. This is the
// cycle-accurate counterpart of TestAllKernelsMatchReference, which runs the
// same checks on the functional machine only.
package kernels_test

import (
	"fmt"
	"testing"

	"smarco/internal/chip"
	"smarco/internal/kernels"
)

// mediumChip is an 8x8 (64-core) configuration: several sub-rings, all four
// memory controllers, direct links in play.
func mediumChip() chip.Config {
	cfg := chip.DefaultConfig()
	cfg.SubRings = 8
	cfg.CoresPerSub = 8
	cfg.MCs = 4
	cfg.Partitions = 1
	return cfg
}

func TestKernelConformanceFullChip(t *testing.T) {
	chips := []struct {
		name string
		cfg  chip.Config
	}{
		{"small", chip.SmallConfig()},
		{"medium", mediumChip()},
	}
	// Scale 0 is each benchmark's unit-test default; the others grow the
	// per-task footprint (bytes of text, keys, points, ...).
	scales := []int{0, 64, 160}
	seeds := []uint64{1, 2, 3}

	for _, cs := range chips {
		if cs.name == "medium" && testing.Short() {
			continue
		}
		for _, name := range kernels.Names {
			for _, scale := range scales {
				for _, seed := range seeds {
					label := fmt.Sprintf("%s/%s/scale%d/seed%d", cs.name, name, scale, seed)
					cfg := cs.cfg
					t.Run(label, func(t *testing.T) {
						// Every cell is an independent simulation (own chip,
						// own memory image): run the matrix concurrently, one
						// cell per CPU. Each cell's result is deterministic,
						// so the matrix outcome is order-independent.
						t.Parallel()
						w := kernels.MustNew(name, kernels.Config{Seed: seed, Tasks: 8, Scale: scale})
						c := chip.New(cfg, w.Mem)
						c.Submit(w.Tasks)
						if _, err := c.Run(50_000_000); err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if err := w.Check(); err != nil {
							t.Fatalf("%s: output does not match Go reference: %v", label, err)
						}
					})
				}
			}
		}
	}
}
