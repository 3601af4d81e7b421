package chip

import (
	"strings"
	"testing"

	"smarco/internal/fault"
	"smarco/internal/kernels"
)

func faultyConfig(parts int) Config {
	cfg := SmallConfig()
	cfg.SubRings = 2
	cfg.CoresPerSub = 4
	cfg.MCs = 2
	cfg.Partitions = parts
	cfg.Fault = fault.Config{
		Seed:          7,
		LinkFaultRate: 1e-3,
		DRAMFlipRate:  1e-4,
		KillCores:     1,
	}
	return cfg
}

func runFaulty(t *testing.T, parts int) (Metrics, *fault.Stats) {
	t.Helper()
	w := kernels.MustNew("wordcount", kernels.Config{Seed: 41, Tasks: 24, Scale: 512})
	c, err := Build(faultyConfig(parts), w.Mem)
	if err != nil {
		t.Fatal(err)
	}
	c.Submit(w.Tasks)
	if _, err := c.Run(30_000_000); err != nil {
		t.Fatalf("parts=%d: %v", parts, err)
	}
	if err := w.Check(); err != nil {
		t.Fatalf("parts=%d: output corrupted under fault injection: %v", parts, err)
	}
	return c.Metrics(), c.FaultStats()
}

// The headline RAS guarantee: with faults active, a run is bit-identical
// on one partition and on two — same cycle count, same instruction count,
// same fault history.
func TestFaultRunDeterministicAcrossExecutors(t *testing.T) {
	one, sStats := runFaulty(t, 1)
	two, pStats := runFaulty(t, 2)
	if one != two {
		t.Fatalf("metrics diverged between partition counts:\none: %+v\ntwo: %+v", one, two)
	}
	if sStats.CoreKills.Load() != 1 {
		t.Fatalf("expected exactly 1 core kill, got %d", sStats.CoreKills.Load())
	}
	if sStats.CoreKills.Load() != pStats.CoreKills.Load() ||
		sStats.Retransmits.Load() != pStats.Retransmits.Load() ||
		sStats.ECCCorrected.Load() != pStats.ECCCorrected.Load() {
		t.Fatal("fault histories diverged between partition counts")
	}
}

// Same config, same seed => identical runs; different fault seed => the
// fault history actually changes (the knob is connected).
func TestFaultSeedSelectsHistory(t *testing.T) {
	run := func(seed uint64) Metrics {
		w := kernels.MustNew("kmp", kernels.Config{Seed: 43, Tasks: 16, Scale: 512})
		cfg := faultyConfig(1)
		cfg.Fault.Seed = seed
		cfg.Fault.KillCores = 0 // isolate the link/DRAM streams
		c, err := Build(cfg, w.Mem)
		if err != nil {
			t.Fatal(err)
		}
		c.Submit(w.Tasks)
		if _, err := c.Run(30_000_000); err != nil {
			t.Fatal(err)
		}
		if err := w.Check(); err != nil {
			t.Fatal(err)
		}
		return c.Metrics()
	}
	a, b := run(1), run(1)
	if a != b {
		t.Fatalf("same seed produced different runs:\n%+v\n%+v", a, b)
	}
	c := run(2)
	if a.LinkFaults == c.LinkFaults && a.Cycles == c.Cycles {
		t.Fatal("changing the fault seed changed nothing")
	}
}

// Killing a core must not lose tasks: everything still completes and
// verifies, and the migration counters show the recovery actually ran.
func TestCoreKillMigratesAndVerifies(t *testing.T) {
	m, st := runFaulty(t, 1)
	if m.CoresKilled != 1 {
		t.Fatalf("CoresKilled = %d, want 1", m.CoresKilled)
	}
	if st.TasksMigrated.Load() == 0 {
		t.Fatal("no tasks migrated off the killed core; kill cycle too late or core idle")
	}
	if m.TasksDone != 24 {
		t.Fatalf("TasksDone = %d, want 24", m.TasksDone)
	}
}

// Link faults at rate 1.0 wedge the NoC: every traversal faults, every
// retransmission faults again, and packets die after the retry budget. The
// watchdog must convert that into a diagnostic naming stalled components
// instead of silently burning the whole cycle budget.
func TestWedgedChipTripsWatchdog(t *testing.T) {
	w := kernels.MustNew("wordcount", kernels.Config{Seed: 41, Tasks: 8, Scale: 256})
	cfg := faultyConfig(1)
	cfg.Fault = fault.Config{Seed: 7, LinkFaultRate: 1, MaxRetransmit: 2}
	cfg.WatchdogCycles = 2_000
	c, err := Build(cfg, w.Mem)
	if err != nil {
		t.Fatal(err)
	}
	c.Submit(w.Tasks)
	_, err = c.Run(10_000_000)
	if err == nil {
		t.Fatal("fully faulted NoC completed a run")
	}
	if !strings.Contains(err.Error(), "watchdog") {
		t.Fatalf("want a watchdog diagnostic, got: %v", err)
	}
	if !strings.Contains(err.Error(), "stalled:") {
		t.Fatalf("diagnostic does not list stalled components: %v", err)
	}
}

// A clean run must not change when fault injection is merely configured off:
// the RAS plumbing itself is free when disabled.
func TestDisabledFaultsMatchBaseline(t *testing.T) {
	run := func(cfg Config) Metrics {
		w := kernels.MustNew("rnc", kernels.Config{Seed: 47, Tasks: 8})
		c, err := Build(cfg, w.Mem)
		if err != nil {
			t.Fatal(err)
		}
		c.Submit(w.Tasks)
		if _, err := c.Run(20_000_000); err != nil {
			t.Fatal(err)
		}
		return c.Metrics()
	}
	base := SmallConfig()
	withZero := SmallConfig()
	withZero.Fault = fault.Config{Seed: 99} // seed set, all rates zero
	a, b := run(base), run(withZero)
	if a != b {
		t.Fatalf("disabled fault config perturbed the run:\n%+v\n%+v", a, b)
	}
}

func TestBuildRejectsBadFaultConfig(t *testing.T) {
	cfg := SmallConfig()
	cfg.Fault = fault.Config{LinkFaultRate: 2}
	if _, err := Build(cfg, nil); err == nil {
		t.Fatal("Build accepted an out-of-range fault rate")
	}
}
