package chip

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"smarco/internal/kernels"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden snapshot files")

// goldenTolerance returns the allowed relative error for a snapshot field.
// Cycle counts and every other integer counter must match exactly. Derived
// float fields (IPC, utilizations, latency means) are deterministic but pass
// through JSON formatting, so they get a tight band; simulated wall-time
// ("seconds", derived from cycles at ClockHz) gets a looser one so a change
// of clock constant alone does not count as a regression.
func goldenTolerance(path string, v float64) float64 {
	if v == math.Trunc(v) {
		return 0 // integral values (cycles, counters) are exact
	}
	if filepath.Base(path) == "seconds" {
		return 1e-6
	}
	return 1e-9
}

// diffJSON recursively compares two decoded JSON values with per-field
// tolerances, reporting every mismatch with its path.
func diffJSON(t *testing.T, path string, want, got any) {
	t.Helper()
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			t.Errorf("%s: type changed: %T vs %T", path, want, got)
			return
		}
		for k, wv := range w {
			gv, ok := g[k]
			if !ok {
				t.Errorf("%s/%s: field missing from snapshot", path, k)
				continue
			}
			diffJSON(t, path+"/"+k, wv, gv)
		}
		for k := range g {
			if _, ok := w[k]; !ok {
				t.Errorf("%s/%s: unexpected new field (run -update-golden if intentional)", path, k)
			}
		}
	case []any:
		g, ok := got.([]any)
		if !ok || len(w) != len(g) {
			t.Errorf("%s: array changed: %v vs %v", path, want, got)
			return
		}
		for i := range w {
			diffJSON(t, fmt.Sprintf("%s[%d]", path, i), w[i], g[i])
		}
	case float64:
		g, ok := got.(float64)
		if !ok {
			t.Errorf("%s: type changed: %T vs %T", path, want, got)
			return
		}
		tol := goldenTolerance(path, w)
		if tol == 0 {
			if w != g {
				t.Errorf("%s: %v, golden %v (exact field)", path, g, w)
			}
			return
		}
		denom := math.Abs(w)
		if denom == 0 {
			denom = 1
		}
		if math.Abs(g-w)/denom > tol {
			t.Errorf("%s: %v, golden %v (tolerance %g)", path, g, w, tol)
		}
	default:
		if want != got {
			t.Errorf("%s: %v, golden %v", path, got, want)
		}
	}
}

// TestGoldenSnapshots runs every benchmark on the small chip and compares
// the full chip.Snapshot JSON against a per-kernel golden file. Regenerate
// with: go test ./internal/chip -run TestGoldenSnapshots -update-golden
func TestGoldenSnapshots(t *testing.T) {
	for _, name := range kernels.Names {
		name := name
		t.Run(name, func(t *testing.T) {
			// Each kernel's run is an independent one-partition simulation
			// with a deterministic snapshot; run them concurrently.
			t.Parallel()
			w := kernels.MustNew(name, kernels.Config{Seed: 11, Tasks: 8})
			c := New(SmallConfig(), w.Mem)
			c.Submit(w.Tasks)
			if _, err := c.Run(20_000_000); err != nil {
				t.Fatal(err)
			}
			if err := w.Check(); err != nil {
				t.Fatal(err)
			}
			raw, err := json.MarshalIndent(c.Snapshot("golden", name), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			raw = append(raw, '\n')
			path := filepath.Join("testdata", "golden", name+".json")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			wantRaw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update-golden to create)", err)
			}
			var want, got any
			if err := json.Unmarshal(wantRaw, &want); err != nil {
				t.Fatalf("golden file: %v", err)
			}
			if err := json.Unmarshal(raw, &got); err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			diffJSON(t, name, want, got)
		})
	}
}
