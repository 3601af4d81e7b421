package chip

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"smarco/internal/fault"
	"smarco/internal/kernels"
	"smarco/internal/sampling"
	"smarco/internal/sim"
)

// sampTinyConfig is a 2×2 (4-core, 4-thread) chip: sampled-run mechanics
// are identical to bigger machines but the batch floor (2·(4+8·4) = 72
// tasks) and per-window cost stay small enough for tight test loops.
func sampTinyConfig() Config {
	cfg := SmallConfig()
	cfg.SubRings = 2
	cfg.CoresPerSub = 2
	cfg.Core.Lanes = 1
	cfg.Core.ThreadsPerLane = 1
	return cfg
}

func sampTinyWorkload(tasks int) *kernels.Workload {
	return kernels.MustNew("kmp", kernels.Config{Seed: 11, Tasks: tasks, Scale: 32})
}

const sampTinyBudget = 200_000_000

// runSampledTiny builds a sampled tiny chip over a fresh workload and runs
// it to completion.
func runSampledTiny(t *testing.T, tasks int, cad sampling.Config) (*Chip, *kernels.Workload, uint64) {
	t.Helper()
	cfg := sampTinyConfig()
	cfg.Sampling = cad
	w := sampTinyWorkload(tasks)
	c := New(cfg, w.Mem)
	c.Submit(w.Tasks)
	est, err := c.Run(sampTinyBudget)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Check(); err != nil {
		t.Fatal(err)
	}
	return c, w, est
}

var sampDefaultCadence = sampling.Config{Every: 100_000, Window: 10_000}

// TestSampledRunBasics checks the end-to-end contract of a sampled Run:
// the estimate lands near the full-detail cycle count, far fewer cycles
// are simulated in detail than estimated, the workload's outputs are
// correct (the fast-forwarded tasks really executed), and the snapshot
// reports the sampled-mode fields.
func TestSampledRunBasics(t *testing.T) {
	tasks := 720
	wRef := sampTinyWorkload(tasks)
	ref := New(sampTinyConfig(), wRef.Mem)
	ref.Submit(wRef.Tasks)
	refCycles, err := ref.Run(sampTinyBudget)
	if err != nil {
		t.Fatal(err)
	}

	c, _, est := runSampledTiny(t, tasks, sampDefaultCadence)
	relErr := float64(est)/float64(refCycles) - 1
	if relErr < -0.10 || relErr > 0.10 {
		t.Fatalf("estimate %d vs full detail %d: error %+.2f%% outside ±10%%", est, refCycles, 100*relErr)
	}
	r := c.Sampled()
	if r == nil {
		t.Fatal("Sampled() nil after completed sampled run")
	}
	if r.EstCycles != est {
		t.Fatalf("EstCycles %d, Run returned %d", r.EstCycles, est)
	}
	if r.DetailedCycles >= refCycles/2 {
		t.Fatalf("detailed cycles %d not a small fraction of full detail %d", r.DetailedCycles, refCycles)
	}
	if len(r.Windows) == 0 || r.FastTasks == 0 || r.FFInstructions == 0 {
		t.Fatalf("degenerate result: %+v", r)
	}
	if got := c.CompletedTasks() + r.FastTasks; got != tasks {
		t.Fatalf("detailed %d + fast %d tasks != submitted %d", c.CompletedTasks(), r.FastTasks, tasks)
	}
	if c.EstimatedCycles() != est {
		t.Fatalf("EstimatedCycles %d after completion, want %d", c.EstimatedCycles(), est)
	}
	// Run again: the schedule is exhausted, the result must be stable.
	if again, err := c.Run(sampTinyBudget); err != nil || again != est {
		t.Fatalf("re-Run returned (%d, %v), want (%d, nil)", again, err, est)
	}

	s := c.Snapshot("samp", "kmp")
	if !s.Sampled || s.SampleWindows != len(r.Windows) || s.EstError != r.RelErr {
		t.Fatalf("snapshot sampled fields: sampled=%t windows=%d err=%g, want true/%d/%g",
			s.Sampled, s.SampleWindows, s.EstError, len(r.Windows), r.RelErr)
	}
	if s.Cycles != est || s.Seconds != c.Seconds(est) {
		t.Fatalf("snapshot cycles %d / seconds %g, want estimate %d / %g", s.Cycles, s.Seconds, est, c.Seconds(est))
	}
	// An unsampled chip must not grow the fields.
	if rs := ref.Snapshot("ref", "kmp"); rs.Sampled || rs.SampleWindows != 0 || rs.EstError != 0 {
		t.Fatalf("unsampled snapshot has sampled fields: %+v", rs)
	}
}

// TestSampledWindowEntryFingerprints is the functional-equivalence
// metamorphic invariant (DESIGN.md §13): every detailed window opens at a
// drain point, and the memory image there must be bit-identical to a
// full-detail run of the same task prefix run to drain — the functional
// model's writes (including SPM staging semantics) are indistinguishable
// from detailed execution. The final image must likewise match a complete
// full-detail run.
func TestSampledWindowEntryFingerprints(t *testing.T) {
	tasks := 1440
	c, _, _ := runSampledTiny(t, tasks, sampDefaultCadence)
	r := c.Sampled()
	if len(r.Windows) < 2 {
		t.Fatalf("want ≥2 windows to make entry checks meaningful, got %d", len(r.Windows))
	}

	// Recover each window's task-prefix length from the plan.
	var entries []int
	for _, sp := range c.samp.plan.Spans {
		if sp.Detailed {
			entries = append(entries, sp.Start)
		}
	}
	if len(entries) != len(r.Windows) {
		t.Fatalf("%d planned windows, %d recorded", len(entries), len(r.Windows))
	}
	for i, prefix := range entries {
		w := sampTinyWorkload(tasks)
		fd := New(sampTinyConfig(), w.Mem)
		if prefix > 0 {
			fd.Submit(w.Tasks[:prefix])
			if _, err := fd.Run(sampTinyBudget); err != nil {
				t.Fatalf("full-detail prefix %d: %v", prefix, err)
			}
		}
		if got, want := fd.MemFingerprint(), r.Windows[i].EntryMemCRC; got != want {
			t.Fatalf("window %d (task prefix %d): full-detail memory %#x, sampled entry %#x",
				i, prefix, got, want)
		}
	}

	w := sampTinyWorkload(tasks)
	fd := New(sampTinyConfig(), w.Mem)
	fd.Submit(w.Tasks)
	if _, err := fd.Run(sampTinyBudget); err != nil {
		t.Fatal(err)
	}
	if err := w.Check(); err != nil {
		t.Fatal(err)
	}
	if got, want := fd.MemFingerprint(), c.MemFingerprint(); got != want {
		t.Fatalf("final memory diverged: full detail %#x, sampled %#x", got, want)
	}
}

// TestSampledEstimateInvariance: the estimate, the per-window rates, and
// the final memory image are bit-identical across partition counts and
// lookahead settings — on a uniform LinkLatency-4 machine and on the
// heterogeneous DRAM-8/NoC-2/credit-1 machine — and
// across budget-sliced resumption. Window boundaries are observed on the
// engine's absolute done-condition grid, which all of those share; the
// two machines have different timing, so each compares against its own
// cycle-by-cycle reference.
func TestSampledEstimateInvariance(t *testing.T) {
	tasks := 720
	run := func(parts int, look uint64, hetero bool, slices []uint64) (*Chip, uint64) {
		cfg := sampTinyConfig()
		cfg.Sampling = sampDefaultCadence
		cfg.Partitions = parts
		cfg.LinkLatency = 4
		if hetero {
			cfg.DRAMLatency = 8
			cfg.MainRingLatency = 2
			cfg.SubRingLatency = 2
			cfg.CreditLatency = 1
		}
		w := sampTinyWorkload(tasks)
		c := newCapped(cfg, w.Mem, look)
		c.Submit(w.Tasks)
		for _, s := range slices {
			if _, err := c.Run(s); !errors.Is(err, sim.ErrBudget) {
				t.Fatalf("slice %d: want budget stop, got %v", s, err)
			}
			if got := c.EstimatedCycles(); got > s {
				t.Fatalf("slice %d: estimated cycle %d exceeds budget", s, got)
			}
		}
		est, err := c.Run(sampTinyBudget)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Check(); err != nil {
			t.Fatal(err)
		}
		return c, est
	}

	ref, refEst := run(1, 1, false, nil)
	refHet, refHetEst := run(1, 1, true, nil) // hetero machine, cycle-by-cycle
	for _, tc := range []struct {
		name   string
		parts  int
		look   uint64
		hetero bool
		slices []uint64
	}{
		{name: "serial-auto", parts: 1},
		{name: "parallel-look1", parts: 2, look: 1},
		{name: "parallel-auto", parts: 2},
		{name: "serial-auto-sliced", parts: 1, slices: []uint64{100_003, 900_001}},
		{name: "hetero-per-shard-serial", parts: 1, hetero: true},
		{name: "hetero-per-shard-parallel", parts: 2, hetero: true},
		{name: "hetero-per-shard-look4", parts: 1, look: 4, hetero: true},
		{name: "hetero-per-shard-sliced", parts: 1, hetero: true, slices: []uint64{100_003, 900_001}},
	} {
		wantC, wantEst := ref, refEst
		if tc.hetero {
			wantC, wantEst = refHet, refHetEst
		}
		c, est := run(tc.parts, tc.look, tc.hetero, tc.slices)
		if est != wantEst {
			t.Fatalf("%s: estimate %d, reference %d", tc.name, est, wantEst)
		}
		a, b := c.Sampled(), wantC.Sampled()
		if len(a.Windows) != len(b.Windows) {
			t.Fatalf("%s: %d windows, reference %d", tc.name, len(a.Windows), len(b.Windows))
		}
		for i := range a.Windows {
			if a.Windows[i] != b.Windows[i] {
				t.Fatalf("%s: window %d = %+v, reference %+v", tc.name, i, a.Windows[i], b.Windows[i])
			}
		}
		if a.RelErr != b.RelErr || a.FFInstructions != b.FFInstructions {
			t.Fatalf("%s: result %+v, reference %+v", tc.name, a, b)
		}
		if c.MemFingerprint() != wantC.MemFingerprint() {
			t.Fatalf("%s: final memory diverged from reference", tc.name)
		}
	}
}

// TestSampledCheckpointResume: a checkpoint taken at a budget stop —
// whether it lands inside a detailed window or between fast-forward
// chunks — restores into a fresh chip (Build → Submit → Restore) and
// finishes with the identical estimate, window stats, and memory image as
// the uninterrupted run.
func TestSampledCheckpointResume(t *testing.T) {
	tasks := 720
	_, _, refEst := runSampledTiny(t, tasks, sampDefaultCadence)
	refC, _, _ := runSampledTiny(t, tasks, sampDefaultCadence)

	// Budgets chosen to land in qualitatively different places: well inside
	// window 0 (the tiny chip needs ~10k cycles/task, so 72 detailed tasks
	// stretch far past 100k), and out in the extrapolated region.
	for _, stop := range []uint64{100_000, refEst * 3 / 4} {
		name := fmt.Sprintf("stop=%d", stop)
		cfg := sampTinyConfig()
		cfg.Sampling = sampDefaultCadence
		w := sampTinyWorkload(tasks)
		c := New(cfg, w.Mem)
		c.Submit(w.Tasks)
		if _, err := c.Run(stop); !errors.Is(err, sim.ErrBudget) {
			t.Fatalf("%s: want budget stop, got %v", name, err)
		}
		blob := c.Checkpoint()

		w2 := sampTinyWorkload(tasks)
		dst := New(cfg, w2.Mem)
		dst.Submit(w2.Tasks)
		if err := dst.Restore(blob); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		est, err := dst.Run(sampTinyBudget)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := w2.Check(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if est != refEst {
			t.Fatalf("%s: restored run estimated %d, reference %d", name, est, refEst)
		}
		a, b := dst.Sampled(), refC.Sampled()
		for i := range b.Windows {
			if a.Windows[i] != b.Windows[i] {
				t.Fatalf("%s: window %d = %+v, reference %+v", name, i, a.Windows[i], b.Windows[i])
			}
		}
		if a.RelErr != b.RelErr || a.FFInstructions != b.FFInstructions {
			t.Fatalf("%s: result %+v, reference %+v", name, a, b)
		}
		if dst.MemFingerprint() != refC.MemFingerprint() {
			t.Fatalf("%s: final memory diverged", name)
		}

		// The interrupted original continues to the same answer too.
		if est, err := c.Run(sampTinyBudget); err != nil || est != refEst {
			t.Fatalf("%s: original resumed to (%d, %v), want (%d, nil)", name, est, err, refEst)
		}
	}
}

// TestSampledTimelineWatchdog is the timeline/watchdog regression for
// sampled runs: a sampled RunWithTimeline under an aggressive watchdog
// completes without a spurious ErrStalled (fast-forward spans advance the
// estimated clock without the engine observing idle cycles), produces one
// contiguous row per schedule span on the estimated-cycle axis, and the
// CSV marks the extrapolated intervals.
func TestSampledTimelineWatchdog(t *testing.T) {
	cfg := sampTinyConfig()
	cfg.Sampling = sampDefaultCadence
	cfg.WatchdogCycles = 2_000 // far below any fast-forward span's width
	w := sampTinyWorkload(720)
	c := New(cfg, w.Mem)
	c.Submit(w.Tasks)
	samples, est, err := c.RunWithTimeline(sampTinyBudget, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Check(); err != nil {
		t.Fatal(err)
	}
	if len(samples) < 2 {
		t.Fatalf("want rows for windows and fast-forward spans, got %d", len(samples))
	}
	var sawDetailed, sawSampled bool
	for i, s := range samples {
		if s.Sampled {
			sawSampled = true
			if s.Instructions == 0 {
				t.Fatalf("row %d: sampled interval with no functional instructions", i)
			}
		} else {
			sawDetailed = true
		}
		if i > 0 && s.Start != samples[i-1].End {
			t.Fatalf("row %d: starts at %d, previous ended at %d", i, s.Start, samples[i-1].End)
		}
	}
	if !sawDetailed || !sawSampled {
		t.Fatalf("timeline missing a row kind: detailed=%t sampled=%t", sawDetailed, sawSampled)
	}
	if samples[0].Start != 0 || samples[len(samples)-1].End != est {
		t.Fatalf("timeline covers [%d, %d), estimate %d", samples[0].Start, samples[len(samples)-1].End, est)
	}
	var sb strings.Builder
	if err := WriteTimelineCSV(&sb, samples); err != nil {
		t.Fatal(err)
	}
	csv := sb.String()
	if !strings.Contains(csv, "sampled") {
		t.Fatalf("CSV header lacks sampled column:\n%s", csv)
	}
	if !strings.Contains(csv, ",1\n") {
		t.Fatalf("CSV marks no sampled interval:\n%s", csv)
	}
}

// TestSampledConfigErrors covers the rejection paths: sampling combined
// with fault injection (the functional model cannot reproduce injected
// faults), malformed cadences, delayed-release workloads, and RunSampled
// on an unsampled chip.
func TestSampledConfigErrors(t *testing.T) {
	cfg := sampTinyConfig()
	cfg.Sampling = sampDefaultCadence
	cfg.Fault = fault.Config{Seed: 1, KillCores: 1, KillCycle: 100}
	if _, err := Build(cfg, sampTinyWorkload(8).Mem); err == nil {
		t.Fatal("Build accepted sampling + fault injection")
	}

	bad := sampTinyConfig()
	bad.Sampling = sampling.Config{Every: 100, Window: 200}
	if _, err := Build(bad, sampTinyWorkload(8).Mem); err == nil {
		t.Fatal("Build accepted window > cadence period")
	}

	rel := sampTinyConfig()
	rel.Sampling = sampDefaultCadence
	w := sampTinyWorkload(90)
	w.Tasks[3].ReleaseCycle = 500
	c := New(rel, w.Mem)
	c.Submit(w.Tasks)
	if _, err := c.Run(sampTinyBudget); err == nil {
		t.Fatal("sampled Run accepted a delayed-release task")
	}

	plain := New(sampTinyConfig(), sampTinyWorkload(8).Mem)
	if _, err := plain.RunSampled(1000); err == nil {
		t.Fatal("RunSampled ran on a chip without Config.Sampling")
	}
}

// FuzzSampleBoundaries drives the sampled scheduler through arbitrary
// cadences, window caps, link latencies, and budget slicings: however the
// run is chopped — including budget stops inside detailed windows, on
// epoch grids, or between fast-forward chunks, with a checkpoint/restore
// at the first stop — it must finish with the same estimate, window
// statistics, and memory image as the uninterrupted sampled run, and
// every budget stop must respect the estimated-cycle budget exactly.
func FuzzSampleBoundaries(f *testing.F) {
	f.Add(uint64(100_000), uint64(10_000), uint(0), uint64(0), uint64(137), uint64(911), uint(120))
	f.Add(uint64(50_000), uint64(50_000), uint(1), uint64(2), uint64(64), uint64(1), uint(80))
	f.Add(uint64(9_999), uint64(377), uint(3), uint64(3), uint64(1), uint64(4_999), uint(300))
	f.Add(uint64(1_000_000), uint64(333), uint(2), uint64(7), uint64(333), uint64(333), uint(16))
	f.Fuzz(func(t *testing.T, every, window uint64, nw uint, linkLat, s1, s2 uint64, tasks uint) {
		cad := sampling.Config{
			Every:   1 + every%1_000_000,
			Windows: int(nw % 5),
		}
		cad.Window = 1 + window%cad.Every
		linkLat = 1 + linkLat%8
		nTasks := 8 + int(tasks%400)
		s1 = 1 + s1%2_000_000
		s2 = 1 + s2%2_000_000

		cfg := sampTinyConfig()
		cfg.Sampling = cad
		cfg.LinkLatency = linkLat
		mk := func() *kernels.Workload {
			return kernels.MustNew("kmp", kernels.Config{Seed: 11, Tasks: nTasks, Scale: 16})
		}

		wRef := mk()
		ref := New(cfg, wRef.Mem)
		ref.Submit(wRef.Tasks)
		refEst, err := ref.Run(sampTinyBudget)
		if err != nil {
			t.Fatal(err)
		}
		if err := wRef.Check(); err != nil {
			t.Fatal(err)
		}
		refR := ref.Sampled()

		w := mk()
		c := New(cfg, w.Mem)
		c.Submit(w.Tasks)
		first := true
		for _, slice := range []uint64{s1, s1 + s2} {
			if c.Sampled() != nil {
				break
			}
			_, err := c.Run(slice)
			if err == nil {
				break // schedule finished inside the slice
			}
			if !errors.Is(err, sim.ErrBudget) {
				t.Fatalf("slice %d: %v", slice, err)
			}
			if got := c.EstimatedCycles(); got > slice {
				t.Fatalf("slice %d: budget stop at estimated cycle %d", slice, got)
			}
			if first {
				first = false
				// Round-trip through a checkpoint at the first stop.
				blob := c.Checkpoint()
				w2 := mk()
				dst := New(cfg, w2.Mem)
				dst.Submit(w2.Tasks)
				if err := dst.Restore(blob); err != nil {
					t.Fatalf("restore at slice %d: %v", slice, err)
				}
				c, w = dst, w2
			}
		}
		est, err := c.Run(sampTinyBudget)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Check(); err != nil {
			t.Fatal(err)
		}
		if est != refEst {
			t.Fatalf("cad=%+v link=%d slices=(%d,%d) tasks=%d: estimate %d, reference %d",
				cad, linkLat, s1, s2, nTasks, est, refEst)
		}
		r := c.Sampled()
		if len(r.Windows) != len(refR.Windows) {
			t.Fatalf("%d windows, reference %d", len(r.Windows), len(refR.Windows))
		}
		for i := range r.Windows {
			if r.Windows[i] != refR.Windows[i] {
				t.Fatalf("window %d = %+v, reference %+v", i, r.Windows[i], refR.Windows[i])
			}
		}
		if r.RelErr != refR.RelErr || r.FFInstructions != refR.FFInstructions {
			t.Fatalf("result %+v, reference %+v", r, refR)
		}
		if c.MemFingerprint() != ref.MemFingerprint() {
			t.Fatal("final memory diverged from uninterrupted sampled run")
		}
	})
}

// FuzzSampleHeteroBoundaries is FuzzSampleBoundaries on heterogeneous
// machines: arbitrary per-class latencies and SetLookahead clamps compose
// with arbitrary cadences and budget slicings (plus a checkpoint/restore
// at the first stop) without disturbing the estimate, the window
// statistics, or the final memory image.
func FuzzSampleHeteroBoundaries(f *testing.F) {
	f.Add(uint64(100_000), uint64(10_000), uint64(8), uint64(2), uint64(1), uint64(0), uint64(137), uint64(911), uint(120))
	f.Add(uint64(50_000), uint64(50_000), uint64(5), uint64(3), uint64(2), uint64(4), uint64(64), uint64(1), uint(80))
	f.Add(uint64(9_999), uint64(377), uint64(8), uint64(2), uint64(1), uint64(0), uint64(1), uint64(4_999), uint(300))
	f.Add(uint64(1_000_000), uint64(333), uint64(3), uint64(7), uint64(4), uint64(2), uint64(333), uint64(333), uint(16))
	f.Fuzz(func(t *testing.T, every, window, dram, ring, credit, look uint64, s1, s2 uint64, tasks uint) {
		cad := sampling.Config{Every: 1 + every%1_000_000}
		cad.Window = 1 + window%cad.Every
		dram = 1 + dram%8
		ring = 1 + ring%8
		credit = 1 + credit%8
		look = look % 9
		nTasks := 8 + int(tasks%400)
		s1 = 1 + s1%2_000_000
		s2 = 1 + s2%2_000_000

		cfg := sampTinyConfig()
		cfg.Sampling = cad
		cfg.DRAMLatency = dram
		cfg.MainRingLatency = ring
		cfg.SubRingLatency = ring
		cfg.CreditLatency = credit
		mk := func() *kernels.Workload {
			return kernels.MustNew("kmp", kernels.Config{Seed: 11, Tasks: nTasks, Scale: 16})
		}

		wRef := mk()
		ref := newCapped(cfg, wRef.Mem, look)
		ref.Submit(wRef.Tasks)
		refEst, err := ref.Run(sampTinyBudget)
		if err != nil {
			t.Fatal(err)
		}
		if err := wRef.Check(); err != nil {
			t.Fatal(err)
		}
		refR := ref.Sampled()

		w := mk()
		c := newCapped(cfg, w.Mem, look)
		c.Submit(w.Tasks)
		first := true
		for _, slice := range []uint64{s1, s1 + s2} {
			if c.Sampled() != nil {
				break
			}
			_, err := c.Run(slice)
			if err == nil {
				break // schedule finished inside the slice
			}
			if !errors.Is(err, sim.ErrBudget) {
				t.Fatalf("slice %d: %v", slice, err)
			}
			if got := c.EstimatedCycles(); got > slice {
				t.Fatalf("slice %d: budget stop at estimated cycle %d", slice, got)
			}
			if first {
				first = false
				blob := c.Checkpoint()
				w2 := mk()
				dst := newCapped(cfg, w2.Mem, look)
				dst.Submit(w2.Tasks)
				if err := dst.Restore(blob); err != nil {
					t.Fatalf("restore at slice %d: %v", slice, err)
				}
				c, w = dst, w2
			}
		}
		est, err := c.Run(sampTinyBudget)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Check(); err != nil {
			t.Fatal(err)
		}
		if est != refEst {
			t.Fatalf("cad=%+v dram=%d ring=%d credit=%d look=%d slices=(%d,%d) tasks=%d: estimate %d, reference %d",
				cad, dram, ring, credit, look, s1, s2, nTasks, est, refEst)
		}
		r := c.Sampled()
		if len(r.Windows) != len(refR.Windows) {
			t.Fatalf("%d windows, reference %d", len(r.Windows), len(refR.Windows))
		}
		for i := range r.Windows {
			if r.Windows[i] != refR.Windows[i] {
				t.Fatalf("window %d = %+v, reference %+v", i, r.Windows[i], refR.Windows[i])
			}
		}
		if r.RelErr != refR.RelErr || r.FFInstructions != refR.FFInstructions {
			t.Fatalf("result %+v, reference %+v", r, refR)
		}
		if c.MemFingerprint() != ref.MemFingerprint() {
			t.Fatal("final memory diverged from uninterrupted sampled run")
		}
	})
}
