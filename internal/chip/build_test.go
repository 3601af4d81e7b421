package chip

import (
	"runtime"
	"testing"
)

// TestBuildAllocation: building the 256-core chip allocates its wiring,
// not the 32 MB of scratchpad its cores have yet to write (SPM chunks are
// allocated on first write).
func TestBuildAllocation(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c, err := Build(DefaultConfig(), nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(c)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 8<<20 {
		t.Fatalf("Build(DefaultConfig()) allocated %.1f MB, want under 8 MB", float64(n)/(1<<20))
	}
}

// BenchmarkBuild times the set-up of the paper chip and of the small test
// chip, before any task is submitted.
func BenchmarkBuild(b *testing.B) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"paper", DefaultConfig()},
		{"small", SmallConfig()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Build(tc.cfg, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
