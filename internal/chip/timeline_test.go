package chip

import (
	"errors"
	"strings"
	"testing"

	"smarco/internal/kernels"
	"smarco/internal/sim"
)

// TestTimelineBudgetTerminatesIdleWorkload pins the budget-accounting fix:
// maxCycles bounds TOTAL cycles, not cycles since the last sample. A task
// released far beyond the budget keeps the chip legitimately idle (the
// watchdog stays quiet: zero progress but nothing pending), so only the
// total budget can stop the run — the old loop, which reset its budget
// every interval, sampled forever.
func TestTimelineBudgetTerminatesIdleWorkload(t *testing.T) {
	w := kernels.MustNew("rnc", kernels.Config{Seed: 41, Tasks: 2})
	for i := range w.Tasks {
		w.Tasks[i].ReleaseCycle = 50_000_000 // far beyond the budget
	}
	c := New(SmallConfig(), w.Mem)
	c.Submit(w.Tasks)
	const budget = 10_000
	samples, cycles, err := c.RunWithTimeline(budget, 1_000)
	if err == nil {
		t.Fatal("timeline ran a non-completing workload without a budget error")
	}
	if !errors.Is(err, sim.ErrBudget) {
		t.Fatalf("want sim.ErrBudget, got %v", err)
	}
	if cycles != budget {
		t.Fatalf("stopped at cycle %d, want exactly the %d-cycle budget", cycles, budget)
	}
	for _, s := range samples {
		if s.End > budget {
			t.Fatalf("sample %+v extends past the budget", s)
		}
	}
}

// stuckTicker holds work forever without progressing: the watchdog's
// definition of a wedge.
type stuckTicker struct{}

func (stuckTicker) Tick(uint64)      {}
func (stuckTicker) Commit(uint64)    {}
func (stuckTicker) String() string   { return "stuck-unit" }
func (stuckTicker) Progress() uint64 { return 0 }
func (stuckTicker) Health() string   { return "1 request wedged" }

// TestTimelineSurfacesWatchdogDiagnostic: each interval runs under
// Engine.Run, so a wedged simulation aborts the timeline with the
// watchdog's stalled-component diagnostic instead of sampling forever
// (the old loop stepped the engine directly, bypassing the watchdog).
func TestTimelineSurfacesWatchdogDiagnostic(t *testing.T) {
	w := kernels.MustNew("rnc", kernels.Config{Seed: 43, Tasks: 2})
	for i := range w.Tasks {
		w.Tasks[i].ReleaseCycle = 50_000_000 // never runs: chip makes no progress
	}
	cfg := SmallConfig()
	cfg.WatchdogCycles = 500
	c := New(cfg, w.Mem)
	c.eng.Add(stuckTicker{})
	c.Submit(w.Tasks)
	_, _, err := c.RunWithTimeline(1_000_000, 1_000)
	if err == nil {
		t.Fatal("wedged chip sampled to completion")
	}
	if !errors.Is(err, sim.ErrStalled) {
		t.Fatalf("want sim.ErrStalled, got %v", err)
	}
	if !strings.Contains(err.Error(), "stuck-unit") || !strings.Contains(err.Error(), "1 request wedged") {
		t.Fatalf("diagnostic does not name the wedged component: %v", err)
	}
}

// TestTimelineSerialParallelIdentical: mid-run snapshots settle the
// quiescence machinery first, so per-interval metrics are exact at any
// partition count. A quiescence-heavy workload (staggered releases leave
// most of the chip asleep between bursts) must produce byte-identical
// timeline CSVs on one partition and on two.
func TestTimelineSerialParallelIdentical(t *testing.T) {
	run := func(parts int) string {
		w := kernels.MustNew("rnc", kernels.Config{Seed: 47, Tasks: 8})
		for i := range w.Tasks {
			w.Tasks[i].ReleaseCycle = uint64(i) * 3_000 // bursts with idle gaps
		}
		cfg := SmallConfig()
		cfg.Partitions = parts
		c := New(cfg, w.Mem)
		c.Submit(w.Tasks)
		samples, _, err := c.RunWithTimeline(3_000_000, 2_000)
		if err != nil {
			t.Fatalf("parts=%d: %v", parts, err)
		}
		if err := w.Check(); err != nil {
			t.Fatalf("parts=%d: %v", parts, err)
		}
		var sb strings.Builder
		if err := WriteTimelineCSV(&sb, samples); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	one := run(1)
	two := run(2)
	if one != two {
		t.Fatalf("timelines diverged\none partition:\n%s\ntwo partitions:\n%s", one, two)
	}
}

// TestTimelineResumesAfterPriorRun: RunWithTimeline measures its budget
// from the chip's current cycle, so timeline sampling composes with an
// earlier plain Run instead of re-counting those cycles.
func TestTimelineResumesAfterPriorRun(t *testing.T) {
	w := kernels.MustNew("rnc", kernels.Config{Seed: 53, Tasks: 4})
	for i := range w.Tasks {
		w.Tasks[i].ReleaseCycle = 50_000_000
	}
	c := New(SmallConfig(), w.Mem)
	c.Submit(w.Tasks)
	if _, err := c.eng.Run(2_000, nil); !errors.Is(err, sim.ErrBudget) {
		t.Fatalf("warm-up run: %v", err)
	}
	_, cycles, err := c.RunWithTimeline(1_000, 500)
	if !errors.Is(err, sim.ErrBudget) {
		t.Fatalf("want sim.ErrBudget, got %v", err)
	}
	if cycles != 3_000 {
		t.Fatalf("stopped at %d, want 2000 prior + 1000 budget = 3000", cycles)
	}
}
