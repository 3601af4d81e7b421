package experiments

import (
	"reflect"
	"runtime"
	"testing"
)

// TestPoolSizeInvariance: every harness that spreads its runs over the run
// pool returns identical results at pool width 1 and at GOMAXPROCS (at
// least 2, so the pool runs jobs side by side even on a one-CPU host). Each
// simulation is independent and results land by grid position, so the
// worker count is purely a wall-clock knob. Under -short only Fig. 17 and
// Fig. 22 run: together they cover chip runs, Xeon-model runs and a pool
// mixing the two.
func TestPoolSizeInvariance(t *testing.T) {
	cases := []struct {
		name  string
		short bool // also runs under -short
		run   func() (any, error)
	}{
		{"fig1ab", false, func() (any, error) { return Fig01ThreadScaling(ScaleSmall, 1) }},
		{"fig1cd", false, func() (any, error) { return Fig01CacheHierarchy(ScaleSmall, 1) }},
		{"fig17", true, func() (any, error) { return Fig17TCGIPC(ScaleSmall, 1) }},
		{"fig20", false, func() (any, error) { return Fig20MACTComparison(ScaleSmall, 1, "kmp") }},
		{"fig22", true, func() (any, error) { return Fig22VsXeon(ScaleSmall, 1) }},
		{"fig23", false, func() (any, error) { return Fig23Scalability(ScaleSmall, 1) }},
		{"fig26", false, func() (any, error) { return Fig26Prototype(ScaleSmall, 1) }},
		{"nearmem", false, func() (any, error) { return NearMemoryMatch(ScaleSmall, 1) }},
	}
	defer SetPoolWorkers(0)
	widths := []int{1, max(2, runtime.GOMAXPROCS(0))}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && !tc.short {
				t.Skip("long harness; -short keeps fig17 and fig22")
			}
			var ref any
			for _, n := range widths {
				SetPoolWorkers(n)
				if got := PoolWorkers(); got != n {
					t.Fatalf("PoolWorkers() = %d after SetPoolWorkers(%d)", got, n)
				}
				got, err := tc.run()
				if err != nil {
					t.Fatalf("pool=%d: %v", n, err)
				}
				if ref == nil {
					ref = got
					continue
				}
				if !reflect.DeepEqual(got, ref) {
					t.Fatalf("pool=%d: results diverged:\n%+v\nvs pool=1:\n%+v", n, got, ref)
				}
			}
		})
	}
}
