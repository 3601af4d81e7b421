package card

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"smarco/internal/chip"
	"smarco/internal/fault"
	"smarco/internal/kernels"
	"smarco/internal/sim"
	"smarco/internal/snapshot"
)

func smallCardConfig(processors int) Config {
	cfg := chip.SmallConfig()
	cfg.SubRings = 2
	cfg.CoresPerSub = 4
	cfg.MCs = 1
	return Config{Processors: processors, Chip: cfg, PCIe: DefaultPCIe()}
}

// accounted asserts the dispatcher's exactly-once invariant.
func accounted(t *testing.T, r DispatchReport) {
	t.Helper()
	if r.Completed+r.Abandoned+r.Shed != r.Submitted {
		t.Fatalf("accounting leak: completed %d + abandoned %d + shed %d != submitted %d",
			r.Completed, r.Abandoned, r.Shed, r.Submitted)
	}
}

func TestSingleProcessorCardRunsAndVerifies(t *testing.T) {
	w := kernels.MustNew("wordcount", kernels.Config{Seed: 41, Tasks: 16, Scale: 512, StageSPM: true})
	c := MustNew(smallCardConfig(1), w.Mem)
	cycles, err := c.Run(w.Tasks, 20_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Check(); err != nil {
		t.Fatal(err)
	}
	// PCIe latency must be visible: nothing completes before two hops.
	if cycles <= 2*DefaultPCIe().LatencyCycles {
		t.Fatalf("cycles = %d, implausibly below the PCIe floor", cycles)
	}
	r := c.Report()
	accounted(t, r)
	if r.Completed != len(w.Tasks) {
		t.Fatalf("completed %d of %d tasks", r.Completed, len(w.Tasks))
	}
	if len(r.DeadChips) != 0 || r.Resubmits != 0 {
		t.Fatalf("fault-free run reported faults: %+v", r)
	}
}

func TestDualProcessorCardScales(t *testing.T) {
	run := func(processors int) uint64 {
		w := kernels.MustNew("kmp", kernels.Config{Seed: 43, Tasks: 64, Scale: 768, StageSPM: true})
		c := MustNew(smallCardConfig(processors), w.Mem)
		cycles, err := c.Run(w.Tasks, 40_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Check(); err != nil {
			t.Fatal(err)
		}
		return cycles
	}
	one := run(1)
	two := run(2)
	if two >= one {
		t.Fatalf("dual-processor card not faster: %d vs %d", two, one)
	}
	// The paper's dual card roughly doubles throughput on parallel work;
	// allow generous slack for the PCIe floor and dispatch skew.
	if float64(one)/float64(two) < 1.3 {
		t.Fatalf("dual card speedup only %.2fx", float64(one)/float64(two))
	}
}

func TestCardRejectsBadProcessorCount(t *testing.T) {
	if _, err := New(Config{Processors: 3, Chip: chip.SmallConfig()}, nil); err == nil {
		t.Fatal("expected error for unsupported processor count")
	}
}

func TestPCIePacingDelaysSubmission(t *testing.T) {
	// With a 1-task-per-kcycle link, the 8th task cannot release before
	// ~8000 cycles + latency.
	cfg := smallCardConfig(1)
	cfg.PCIe.TasksPerKCycle = 1
	w := kernels.MustNew("rnc", kernels.Config{Seed: 47, Tasks: 8, StageSPM: true})
	c := MustNew(cfg, w.Mem)
	cycles, err := c.Run(w.Tasks, 20_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Check(); err != nil {
		t.Fatal(err)
	}
	if cycles < cfg.PCIe.LatencyCycles+7*1000 {
		t.Fatalf("cycles = %d, pacing not applied", cycles)
	}
}

// TestChipKillMigratesTasks: a scheduled chip kill on a dual card must not
// lose work — the survivor picks up the victim's tasks and the workload
// still verifies bit-exactly, with the recovery visible in the report.
func TestChipKillMigratesTasks(t *testing.T) {
	run := func() (*Card, *kernels.Workload) {
		cfg := smallCardConfig(2)
		cfg.Chip.Fault = fault.Config{Seed: 7, ChipKills: 1, ChipKillCycle: 60_000}
		w := kernels.MustNew("kmp", kernels.Config{Seed: 11, Tasks: 24, Scale: 512})
		c := MustNew(cfg, w.Mem)
		if _, err := c.Run(w.Tasks, 60_000_000); err != nil {
			t.Fatal(err)
		}
		return c, w
	}
	c, w := run()
	if err := w.Check(); err != nil {
		t.Fatalf("workload broken after chip kill: %v", err)
	}
	r := c.Report()
	accounted(t, r)
	if r.Completed != len(w.Tasks) {
		t.Fatalf("completed %d of %d after migration: %+v", r.Completed, len(w.Tasks), r)
	}
	if len(r.DeadChips) != 1 {
		t.Fatalf("want 1 dead processor, got %+v", r.DeadChips)
	}
	if r.DeadChips[0].Cycle != 60_000 || r.DeadChips[0].Cause != "killed" {
		t.Fatalf("dead chip record = %+v", r.DeadChips[0])
	}
	if r.Recovered == 0 || r.Resubmits == 0 {
		t.Fatalf("kill recovery left no trace: %+v", r)
	}
	if r.FirstKillCycle != 60_000 || r.PostKillPerK <= 0 {
		t.Fatalf("degraded-throughput metrics missing: %+v", r)
	}
	if s := c.FaultStats(); s == nil || s.ChipKills.Load() != 1 {
		t.Fatalf("chip-kill stat not recorded: %+v", s)
	}

	// The recovery schedule is part of the deterministic contract.
	c2, _ := run()
	if c.AccountingFingerprint() != c2.AccountingFingerprint() {
		t.Fatal("chip-kill recovery not deterministic across runs")
	}
}

// TestEngineErrorMigratesTasks: a processor that wedges mid-run with a
// real engine watchdog error (fully faulted NoC, every packet eventually
// lost) must be detected at the next grid boundary and its in-flight tasks
// migrated to the survivor — the run completes instead of hanging until
// the cycle budget. The linkLatency=4 variant wedges a chip running
// multi-cycle epochs: the watchdog counts simulated cycles, not epochs, so
// detection and migration work identically under lookahead > 1.
func TestEngineErrorMigratesTasks(t *testing.T) {
	for _, linkLatency := range []uint64{0, 4} {
		linkLatency := linkLatency
		t.Run(fmt.Sprintf("linkLatency=%d", linkLatency), func(t *testing.T) {
			w := kernels.MustNew("kmp", kernels.Config{Seed: 37, Tasks: 24, Scale: 512})
			c := MustNew(smallCardConfig(2), w.Mem)
			// Rebuild processor 0 with a hostile NoC and a fast watchdog: its first
			// slice of work wedges, and RunUntil surfaces the diagnostic through the
			// dispatcher's advance().
			wcfg := smallCardConfig(2).Chip
			wcfg.Fault = fault.Config{Seed: 7, LinkFaultRate: 1, MaxRetransmit: 2}
			wcfg.WatchdogCycles = 2_000
			wcfg.LinkLatency = linkLatency
			wedged, err := chip.Build(wcfg, w.Mem)
			if err != nil {
				t.Fatal(err)
			}
			if la := wedged.RunReport().Lookahead; linkLatency > 1 && la != linkLatency {
				t.Fatalf("wedged chip lookahead %d, want %d", la, linkLatency)
			}
			c.chips[0] = wedged
			if _, err := c.Run(w.Tasks, 60_000_000); err != nil {
				t.Fatalf("run did not recover from the wedged processor: %v", err)
			}
			if err := w.Check(); err != nil {
				t.Fatalf("workload broken after engine-error migration: %v", err)
			}
			r := c.Report()
			accounted(t, r)
			if r.Completed != len(w.Tasks) {
				t.Fatalf("completed %d of %d after engine-error migration: %+v", r.Completed, len(w.Tasks), r)
			}
			if len(r.DeadChips) != 1 || r.DeadChips[0].Processor != 0 {
				t.Fatalf("want processor 0 dead, got %+v", r.DeadChips)
			}
			if !strings.Contains(r.DeadChips[0].Cause, "watchdog") {
				t.Fatalf("dead-chip cause is not the watchdog diagnostic: %q", r.DeadChips[0].Cause)
			}
			if r.Recovered == 0 || r.Resubmits == 0 {
				t.Fatalf("engine-error recovery left no trace: %+v", r)
			}
		})
	}
}

// TestBrownoutShedsLowPriority: with a tight brownout depth, migrated
// normal-priority tasks are shed rather than piled onto the survivor, and
// every shed task carries the brownout reason.
func TestBrownoutShedsLowPriority(t *testing.T) {
	cfg := smallCardConfig(2)
	cfg.Chip.Fault = fault.Config{Seed: 7, ChipKills: 1, ChipKillCycle: 20_000}
	cfg.Dispatch.BrownoutDepth = 1
	w := kernels.MustNew("kmp", kernels.Config{Seed: 13, Tasks: 32, Scale: 512})
	c := MustNew(cfg, w.Mem)
	if _, err := c.Run(w.Tasks, 60_000_000); err != nil {
		t.Fatal(err)
	}
	r := c.Report()
	accounted(t, r)
	if r.Shed == 0 {
		t.Fatalf("brownout depth 1 shed nothing: %+v", r)
	}
	if r.Reasons[ReasonBrownout] != r.Shed {
		t.Fatalf("shed %d but brownout reason count %d", r.Shed, r.Reasons[ReasonBrownout])
	}
}

// TestRealTimeTasksSurviveBrownout: real-time tasks are exempt from
// shedding — under the same brownout pressure they must all complete.
func TestRealTimeTasksSurviveBrownout(t *testing.T) {
	cfg := smallCardConfig(2)
	cfg.Chip.Fault = fault.Config{Seed: 7, ChipKills: 1, ChipKillCycle: 20_000}
	cfg.Dispatch.BrownoutDepth = 1
	w := kernels.MustNew("rnc", kernels.Config{Seed: 13, Tasks: 16})
	c := MustNew(cfg, w.Mem)
	if _, err := c.Run(w.Tasks, 60_000_000); err != nil {
		t.Fatal(err)
	}
	r := c.Report()
	accounted(t, r)
	if r.Shed != 0 {
		t.Fatalf("real-time tasks were shed: %+v", r)
	}
	if r.Completed != len(w.Tasks) {
		t.Fatalf("completed %d of %d real-time tasks: %+v", r.Completed, len(w.Tasks), r)
	}
}

// TestRetryBudgetExhaustion: with re-submissions disabled, a chip kill
// abandons the victim's in-flight tasks with the retries reason.
func TestRetryBudgetExhaustion(t *testing.T) {
	cfg := smallCardConfig(2)
	cfg.Chip.Fault = fault.Config{Seed: 7, ChipKills: 1, ChipKillCycle: 20_000}
	cfg.Dispatch.TaskRetries = -1 // none
	w := kernels.MustNew("kmp", kernels.Config{Seed: 17, Tasks: 24, Scale: 512})
	c := MustNew(cfg, w.Mem)
	if _, err := c.Run(w.Tasks, 60_000_000); err != nil {
		t.Fatal(err)
	}
	r := c.Report()
	accounted(t, r)
	if r.Abandoned == 0 || r.Reasons[ReasonRetries] != r.Abandoned {
		t.Fatalf("want retry-budget abandonments, got %+v", r)
	}
	if r.Resubmits != 0 {
		t.Fatalf("resubmitted %d tasks with retries disabled", r.Resubmits)
	}
}

// TestSubmitTimeoutRedispatches: an aggressive submission timeout forces
// re-dispatch on a healthy card; the stale executions surface as duplicate
// completions and accounting still balances.
func TestSubmitTimeoutRedispatches(t *testing.T) {
	mk := func() *kernels.Workload {
		return kernels.MustNew("kmp", kernels.Config{Seed: 19, Tasks: 8, Scale: 768})
	}
	// Calibrate: the timeout must fire on the slower half of the tasks but
	// still leave the first executions time to win.
	wRef := mk()
	refCycles, err := MustNew(smallCardConfig(1), wRef.Mem).Run(wRef.Tasks, 60_000_000)
	if err != nil {
		t.Fatal(err)
	}

	cfg := smallCardConfig(1)
	cfg.Dispatch.SubmitTimeout = refCycles / 2
	cfg.Dispatch.TaskRetries = 100 // timeouts re-dispatch, never abandon
	w := mk()
	c := MustNew(cfg, w.Mem)
	if _, err := c.Run(w.Tasks, 120_000_000); err != nil {
		t.Fatal(err)
	}
	r := c.Report()
	accounted(t, r)
	if r.Timeouts == 0 {
		t.Fatalf("half-run timeout never fired: %+v", r)
	}
	if r.Completed != len(w.Tasks) {
		t.Fatalf("completed %d of %d under timeouts: %+v", r.Completed, len(w.Tasks), r)
	}
	if err := w.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestPCIeFaultsRetransmit: a lossy host link delays submissions through
// NAK/timeout retransmits but loses nothing below the retransmit cap.
func TestPCIeFaultsRetransmit(t *testing.T) {
	cfg := smallCardConfig(1)
	cfg.Chip.Fault = fault.Config{Seed: 5, PCIeFaultRate: 0.2}
	w := kernels.MustNew("kmp", kernels.Config{Seed: 23, Tasks: 16, Scale: 512})
	c := MustNew(cfg, w.Mem)
	if _, err := c.Run(w.Tasks, 60_000_000); err != nil {
		t.Fatal(err)
	}
	r := c.Report()
	accounted(t, r)
	if r.Completed != len(w.Tasks) {
		t.Fatalf("lossy-but-retried link dropped tasks: %+v", r)
	}
	s := c.FaultStats()
	if s == nil || s.PCIeRetransmits.Load() == 0 {
		t.Fatalf("20%% fault rate produced no retransmits: %+v", s)
	}
	if s.PCIeLost.Load() != 0 {
		t.Fatalf("submissions lost below the retransmit cap: %+v", s)
	}
	if err := w.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestDeadCardJoinedError: when every processor is gone, Resume reports a
// joined error naming each one with its cause.
func TestDeadCardJoinedError(t *testing.T) {
	w := kernels.MustNew("kmp", kernels.Config{Seed: 29, Tasks: 4})
	c := MustNew(smallCardConfig(2), w.Mem)
	if err := c.Start(w.Tasks); err != nil {
		t.Fatal(err)
	}
	d := c.disp
	d.dead[0], d.deadAt[0] = true, 4_000
	d.dead[1], d.deadAt[1] = true, 6_000
	d.procErr[1] = errors.New("synthetic watchdog stall")
	_, err := c.Resume(1_000_000)
	if err == nil {
		t.Fatal("dead card resumed without error")
	}
	for _, want := range []string{"processor 0", "killed at cycle 4000", "processor 1", "synthetic watchdog stall"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("joined error missing %q: %v", want, err)
		}
	}
}

// TestInterruptStopsAtBarrier: the Interrupt hook stops Resume with
// ErrInterrupted at a cycle barrier, after which the card resumes cleanly.
func TestInterruptStopsAtBarrier(t *testing.T) {
	w := kernels.MustNew("kmp", kernels.Config{Seed: 31, Tasks: 8, Scale: 512})
	c := MustNew(smallCardConfig(1), w.Mem)
	stop := false
	c.Interrupt = func() bool { return stop }
	c.SliceHook = func(now uint64) {
		if now >= 10_000 {
			stop = true
		}
	}
	if err := c.Start(w.Tasks); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Resume(60_000_000); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	stop = false
	c.Interrupt, c.SliceHook = nil, nil
	if _, err := c.Resume(60_000_000); err != nil {
		t.Fatal(err)
	}
	r := c.Report()
	accounted(t, r)
	if r.Completed != len(w.Tasks) {
		t.Fatalf("completed %d of %d after interrupt+resume", r.Completed, len(w.Tasks))
	}
	if err := w.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreRejectsOutOfRangeChip: a corrupted-but-well-formed dispatcher
// section with a task assigned to a nonexistent processor must fail the
// restore with a decode error, not panic later in harvest/moveTask.
func TestRestoreRejectsOutOfRangeChip(t *testing.T) {
	w := kernels.MustNew("kmp", kernels.Config{Seed: 29, Tasks: 2})
	c := MustNew(smallCardConfig(2), w.Mem)
	e := snapshot.NewEncoder()
	e.Bool(true)  // started
	e.U64(0)      // now
	e.U64(0)      // final
	e.Bool(false) // finished
	e.Int(len(w.Tasks))
	e.Int(w.Tasks[0].ID)
	e.U8(uint8(statusPending))
	e.String("")
	e.U64(0)
	e.Int(7) // chip index out of range for a 2-processor card
	err := c.restoreDispatch(snapshot.NewDecoder(e.Bytes()), w.Tasks)
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range processor index not rejected: %v", err)
	}
}

// TestCardCheckpointRoundTrip: a dual-processor card checkpointed at an
// off-grid budget stop and restored into a fresh card must finish at the
// identical completion cycle, with identical accounting, and verify.
func TestCardCheckpointRoundTrip(t *testing.T) {
	cfg := smallCardConfig(2)
	mk := func() *kernels.Workload {
		return kernels.MustNew("rnc", kernels.Config{Seed: 3, Tasks: 8})
	}

	wRef := mk()
	ref := MustNew(cfg, wRef.Mem)
	refCycles, err := ref.Run(wRef.Tasks, 20_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := wRef.Check(); err != nil {
		t.Fatal(err)
	}

	// Stop mid-run at an off-grid cycle: restore must re-align with the
	// uninterrupted run's slice-grid decision cycles.
	mid := refCycles/2 + 137
	wInt := mk()
	intr := MustNew(cfg, wInt.Mem)
	if err := intr.Start(wInt.Tasks); err != nil {
		t.Fatal(err)
	}
	if _, err := intr.Resume(mid); !errors.Is(err, sim.ErrBudget) {
		t.Fatalf("want budget stop at %d, got %v", mid, err)
	}
	file := intr.Checkpoint()

	wRes := mk()
	res := MustNew(cfg, wRes.Mem)
	if err := res.Restore(file, wRes.Tasks); err != nil {
		t.Fatal(err)
	}
	gotCycles, err := res.Resume(20_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if gotCycles != refCycles {
		t.Fatalf("restored card finished at %d, reference at %d", gotCycles, refCycles)
	}
	if res.AccountingFingerprint() != ref.AccountingFingerprint() {
		t.Fatal("restored accounting diverged from reference")
	}
	if err := wRes.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointRoundTripAcrossKill: checkpoint before the kill cycle,
// restore, and the recovery — kill detection, migration, final accounting —
// must replay bit-identically.
func TestCheckpointRoundTripAcrossKill(t *testing.T) {
	cfg := smallCardConfig(2)
	cfg.Chip.Fault = fault.Config{Seed: 7, ChipKills: 1, ChipKillCycle: 60_000}
	mk := func() *kernels.Workload {
		return kernels.MustNew("kmp", kernels.Config{Seed: 11, Tasks: 24, Scale: 512})
	}

	wRef := mk()
	ref := MustNew(cfg, wRef.Mem)
	refCycles, err := ref.Run(wRef.Tasks, 60_000_000)
	if err != nil {
		t.Fatal(err)
	}

	wInt := mk()
	intr := MustNew(cfg, wInt.Mem)
	if err := intr.Start(wInt.Tasks); err != nil {
		t.Fatal(err)
	}
	if _, err := intr.Resume(30_000); !errors.Is(err, sim.ErrBudget) {
		t.Fatalf("want pre-kill budget stop, got %v", err)
	}
	file := intr.Checkpoint()

	wRes := mk()
	res := MustNew(cfg, wRes.Mem)
	if err := res.Restore(file, wRes.Tasks); err != nil {
		t.Fatal(err)
	}
	gotCycles, err := res.Resume(60_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if gotCycles != refCycles {
		t.Fatalf("restored run finished at %d, reference at %d", gotCycles, refCycles)
	}
	if res.AccountingFingerprint() != ref.AccountingFingerprint() {
		t.Fatal("kill recovery diverged after restore")
	}
	if err := wRes.Check(); err != nil {
		t.Fatal(err)
	}
	if r := res.Report(); len(r.DeadChips) != 1 || r.Recovered == 0 {
		t.Fatalf("restored run lost the kill record: %+v", r)
	}
}
