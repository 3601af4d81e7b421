package chip

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"smarco/internal/kernels"
	"smarco/internal/sampling"
)

// samplingBoundsPath is the golden error-bound ledger: one row per
// kernel × chip × cadence recording the full-detail cycle count, the
// sampled estimate, and the documented error bound the estimate must stay
// inside. Regenerate (reruns every full-detail reference) with:
//
//	go test ./internal/chip -run TestSamplingErrorBounds -update-golden
const samplingBoundsPath = "testdata/golden/sampling_bounds.json"

type samplingBoundsEntry struct {
	Kernel string `json:"kernel"`
	Chip   string `json:"chip"`
	Cad    string `json:"cadence"`
	Every  uint64 `json:"every"`
	Window uint64 `json:"window"`
	Tasks  int    `json:"tasks"`
	Scale  int    `json:"scale"`
	// FullDetailCycles is the measured full-detail reference.
	FullDetailCycles uint64 `json:"full_detail_cycles"`
	// EstCycles is the sampled run's extrapolation (deterministic; the test
	// asserts exact equality so silent estimator drift is caught).
	EstCycles uint64  `json:"est_cycles"`
	Windows   int     `json:"windows"`
	RelErr    float64 `json:"rel_err"`
	RelCI     float64 `json:"rel_ci"`
	Bound     float64 `json:"bound"`
}

// samplingBoundsChips are the two machines of the bounds contract: the
// standard 16-core test chip (1 thread per core) and a 4-core chip with
// 2-lane cores, so the batch floor and warm-up margins are exercised with
// a different thread/core ratio.
var samplingBoundsChipOrder = []string{"small16x1", "tiny4x2"}

var samplingBoundsChips = map[string]func() Config{
	"small16x1": func() Config {
		cfg := SmallConfig()
		cfg.Core.Lanes = 1
		cfg.Core.ThreadsPerLane = 1
		return cfg
	},
	"tiny4x2": func() Config {
		cfg := SmallConfig()
		cfg.SubRings = 2
		cfg.CoresPerSub = 2
		cfg.Core.Lanes = 2
		cfg.Core.ThreadsPerLane = 1
		return cfg
	},
}

// samplingBoundsCadences: the default cadence carries the ≤5% acceptance
// contract; the dense cadence doubles the duty ratio (more, closer
// windows) and gets the same bound.
var samplingBoundsCadences = []struct {
	name   string
	cfg    sampling.Config
	bound  float64
	minWin int
}{
	{"default", sampling.Config{Every: 100_000, Window: 10_000}, 0.05, 1},
	{"dense", sampling.Config{Every: 50_000, Window: 10_000}, 0.05, 1},
}

// samplingBoundsWorkloads tunes task counts per chip so the duty ratio
// yields at least one saturated window above the chip's batch floor, and
// scales per-task work so full-detail references stay test-sized.
var samplingBoundsWorkloads = map[string]struct{ tasks, scale int }{
	"small16x1/wordcount": {2880, 64},
	"small16x1/search":    {2880, 32},
	"small16x1/kmp":       {2880, 64},
	"small16x1/rnc":       {5760, 64},
	"small16x1/kmeans":    {2880, 16},
	"small16x1/terasort":  {2880, 32},
	"tiny4x2/wordcount":   {1600, 64},
	"tiny4x2/search":      {1600, 32},
	"tiny4x2/kmp":         {2400, 32},
	"tiny4x2/rnc":         {4800, 64},
	"tiny4x2/kmeans":      {1600, 16},
	"tiny4x2/terasort":    {1600, 32},
}

const samplingBoundsBudget = 800_000_000

// TestSamplingErrorBounds is the sampled-accuracy regression contract:
// for every kernel on both chips and both cadences, the sampled estimate
// must fall within the documented bound of the golden full-detail cycle
// count, and must reproduce the golden estimate exactly (determinism).
// Full-detail references are only simulated under -update-golden; normal
// runs pay the sampled cost alone.
func TestSamplingErrorBounds(t *testing.T) {
	if *updateGolden && (testing.Short() || raceDetectorOn) {
		t.Fatal("-update-golden needs the full un-instrumented matrix; drop -short/-race")
	}
	golden := map[string]samplingBoundsEntry{}
	if !*updateGolden {
		raw, err := os.ReadFile(samplingBoundsPath)
		if err != nil {
			t.Fatalf("%v (run with -update-golden to create)", err)
		}
		var entries []samplingBoundsEntry
		if err := json.Unmarshal(raw, &entries); err != nil {
			t.Fatalf("golden file: %v", err)
		}
		for _, e := range entries {
			golden[e.Kernel+"/"+e.Chip+"/"+e.Cad] = e
		}
	}

	type result struct {
		key   string
		entry samplingBoundsEntry
	}
	results := make(chan result, len(samplingBoundsWorkloads)*len(samplingBoundsCadences))

	for _, chipName := range samplingBoundsChipOrder {
		mkCfg := samplingBoundsChips[chipName]
		for _, kernel := range kernels.Names {
			// Short mode and race builds run the same trimmed subset: these
			// are one-partition accuracy runs, so the detector only adds
			// wall clock (~20×), and the full matrix runs un-raced in the
			// no-short suite (see race_on_test.go).
			if (testing.Short() || raceDetectorOn) && kernel != "kmp" && kernel != "wordcount" {
				continue
			}
			chipName, mkCfg, kernel := chipName, mkCfg, kernel
			wl, ok := samplingBoundsWorkloads[chipName+"/"+kernel]
			if !ok {
				t.Fatalf("no workload tuning for %s/%s", chipName, kernel)
			}
			t.Run(chipName+"/"+kernel, func(t *testing.T) {
				t.Parallel()
				mk := func() *kernels.Workload {
					return kernels.MustNew(kernel, kernels.Config{Seed: 11, Tasks: wl.tasks, Scale: wl.scale})
				}
				var fullDetail uint64
				if *updateGolden {
					w := mk()
					ref := New(mkCfg(), w.Mem)
					ref.Submit(w.Tasks)
					var err error
					if fullDetail, err = ref.Run(samplingBoundsBudget); err != nil {
						t.Fatalf("full-detail reference: %v", err)
					}
					if err := w.Check(); err != nil {
						t.Fatal(err)
					}
				}
				for _, cad := range samplingBoundsCadences {
					key := kernel + "/" + chipName + "/" + cad.name
					cfg := mkCfg()
					cfg.Sampling = cad.cfg
					w := mk()
					c := New(cfg, w.Mem)
					c.Submit(w.Tasks)
					est, err := c.Run(samplingBoundsBudget)
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					if err := w.Check(); err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					r := c.Sampled()
					if len(r.Windows) < cad.minWin {
						t.Errorf("%s: only %d sample windows", key, len(r.Windows))
					}
					want, haveGolden := golden[key]
					if !haveGolden && !*updateGolden {
						t.Errorf("%s: no golden entry (run with -update-golden)", key)
						continue
					}
					if !*updateGolden {
						fullDetail = want.FullDetailCycles
					}
					relErr := float64(est)/float64(fullDetail) - 1
					if relErr < -cad.bound || relErr > cad.bound {
						t.Errorf("%s: estimate %d vs full detail %d: error %+.2f%% outside ±%.0f%%",
							key, est, fullDetail, 100*relErr, 100*cad.bound)
					}
					if !*updateGolden && est != want.EstCycles {
						t.Errorf("%s: estimate %d, golden %d (deterministic estimator drifted; run -update-golden if intentional)",
							key, est, want.EstCycles)
					}
					results <- result{key, samplingBoundsEntry{
						Kernel: kernel, Chip: chipName, Cad: cad.name,
						Every: cad.cfg.Every, Window: cad.cfg.Window,
						Tasks: wl.tasks, Scale: wl.scale,
						FullDetailCycles: fullDetail, EstCycles: est,
						Windows: len(r.Windows), RelErr: relErr, RelCI: r.RelErr,
						Bound: cad.bound,
					}}
				}
			})
		}
	}

	// Collect after every parallel subtest finished, then (re)write the
	// golden ledger in a stable order.
	t.Cleanup(func() {
		if !*updateGolden {
			return
		}
		close(results)
		byKey := map[string]samplingBoundsEntry{}
		for r := range results {
			byKey[r.key] = r.entry
		}
		var entries []samplingBoundsEntry
		for _, chipName := range samplingBoundsChipOrder {
			for _, kernel := range kernels.Names {
				for _, cad := range samplingBoundsCadences {
					if e, ok := byKey[kernel+"/"+chipName+"/"+cad.name]; ok {
						entries = append(entries, e)
					}
				}
			}
		}
		raw, err := json.MarshalIndent(entries, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(samplingBoundsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(samplingBoundsPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		fmt.Printf("wrote %s (%d entries)\n", samplingBoundsPath, len(entries))
	})
}
