package chaos

import (
	"testing"

	"smarco/internal/card"
	"smarco/internal/fault"
	"smarco/internal/htc"
	"smarco/internal/runner"
)

// killScenario is the canonical CI soak: a two-processor card under the
// CDN-flavoured mix, one chip killed mid-stream.
func killScenario() Scenario {
	return Scenario{
		Name:       "kill-recovery",
		Processors: 2,
		Traffic:    TrafficConfig{Seed: 9, Tasks: 48, MeanGap: 1200, Scale: 256},
		Fault:      fault.Config{Seed: 5, ChipKills: 1, ChipKillCycle: 80_000},
	}
}

func TestTrafficDeterministicAndMixed(t *testing.T) {
	cfg := TrafficConfig{Seed: 3, Tasks: 48, MeanGap: 900, Scale: 128}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Tasks) != cfg.Tasks || len(b.Tasks) != cfg.Tasks {
		t.Fatalf("generated %d and %d tasks, want %d", len(a.Tasks), len(b.Tasks), cfg.Tasks)
	}
	if len(a.Workloads) != 6 {
		t.Fatalf("default mix built %d workloads, want 6", len(a.Workloads))
	}
	var prev uint64
	for i := range a.Tasks {
		ta, tb := a.Tasks[i], b.Tasks[i]
		if ta.ID != tb.ID || ta.Args != tb.Args || ta.ReleaseCycle != tb.ReleaseCycle {
			t.Fatalf("task %d differs across generations", i)
		}
		if ta.ReleaseCycle < prev {
			t.Fatalf("arrivals not monotone at task %d", i)
		}
		prev = ta.ReleaseCycle
		if a.Owner[ta.ID] != b.Owner[ta.ID] {
			t.Fatalf("task %d owner differs", i)
		}
	}
	// The Poisson clock must actually spread arrivals.
	if last := a.Tasks[len(a.Tasks)-1].ReleaseCycle; last == 0 {
		t.Fatal("all tasks released at cycle 0 despite a mean gap")
	}
}

func TestTrafficRejectsBadConfig(t *testing.T) {
	if _, err := Generate(TrafficConfig{Tasks: 0}); err == nil {
		t.Fatal("zero tasks accepted")
	}
	if _, err := Generate(TrafficConfig{Tasks: 4, Mix: map[string]int{"nope": 1}}); err == nil {
		t.Fatal("unknown kernel accepted")
	}
	if _, err := Generate(TrafficConfig{Tasks: 4, Mix: map[string]int{"kmp": 0}}); err == nil {
		t.Fatal("weightless mix accepted")
	}
}

func TestCDNMeanGapTracksNICLimit(t *testing.T) {
	cdn := htc.DefaultCDN()
	sparse := CDNMeanGap(cdn, 50, 1.5e9, 16)
	dense := CDNMeanGap(cdn, 300, 1.5e9, 16)
	if sparse <= 0 || dense <= 0 {
		t.Fatalf("gaps must be positive: %g %g", sparse, dense)
	}
	if dense >= sparse {
		t.Fatalf("more clients must arrive faster: %g vs %g", dense, sparse)
	}
	// Past the NIC limit the arrival rate saturates.
	atCap := CDNMeanGap(cdn, cdn.MaxClients(), 1.5e9, 16)
	overCap := CDNMeanGap(cdn, cdn.MaxClients()+100, 1.5e9, 16)
	if atCap != overCap {
		t.Fatalf("gap must saturate at the NIC limit: %g vs %g", atCap, overCap)
	}
}

// TestChaosSmoke is the shortest seeded schedule: the CI chaos-smoke job
// runs exactly this test under -race, so it must stay well under a minute
// there while still killing a chip mid-traffic and exercising the full
// recovery path. Same invariants as TestChaosKillRecovery, smaller load.
func TestChaosSmoke(t *testing.T) {
	r, err := Run(Scenario{
		Name:       "smoke",
		Processors: 2,
		Traffic:    TrafficConfig{Seed: 9, Tasks: 32, MeanGap: 800, Scale: 128},
		Fault:      fault.Config{Seed: 5, ChipKills: 1, ChipKillCycle: 40_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := r.Report
	if len(rep.DeadChips) != 1 || rep.DeadChips[0].Cycle != 40_000 {
		t.Fatalf("kill schedule not applied: %+v", rep.DeadChips)
	}
	if rep.Completed != rep.Submitted {
		t.Fatalf("default retry budget lost tasks: %+v", rep)
	}
	if rep.Recovered == 0 {
		t.Fatalf("no task migrated off the dead chip: %+v", rep)
	}
	if err := Throughput(r, 0.40); err != nil {
		t.Fatal(err)
	}
	if r.Verified == 0 {
		t.Fatal("no workload was functionally verified")
	}
}

// TestChaosKillRecovery is the canonical soak: seeded chip kill on a dual
// card under the open-loop mix. Exactly-once accounting, all verifiable
// outputs bit-exact, and the survivor keeps >= 40% of pre-kill throughput.
func TestChaosKillRecovery(t *testing.T) {
	r, err := Run(killScenario())
	if err != nil {
		t.Fatal(err)
	}
	rep := r.Report
	if len(rep.DeadChips) != 1 || rep.DeadChips[0].Cycle != 80_000 {
		t.Fatalf("kill schedule not applied: %+v", rep.DeadChips)
	}
	if rep.Completed != rep.Submitted {
		t.Fatalf("default retry budget lost tasks: %+v", rep)
	}
	if rep.Recovered == 0 {
		t.Fatalf("no task migrated off the dead chip: %+v", rep)
	}
	if err := Throughput(r, 0.40); err != nil {
		t.Fatal(err)
	}
	if r.Verified == 0 {
		t.Fatal("no workload was functionally verified")
	}
}

// TestChaosExecutorInvariance: the same scenario on chips of one and two
// engine partitions (run side by side on the runner pool) must produce
// bit-identical accounting and completion cycles.
func TestChaosExecutorInvariance(t *testing.T) {
	parts := []int{1, 2}
	results, err := runner.Map(runner.New(2), len(parts), func(i int) (*Result, error) {
		sc := killScenario()
		cfg := smallChip()
		cfg.Partitions = parts[i]
		sc.Chip = &cfg
		return Run(sc)
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Fingerprint != results[1].Fingerprint {
		t.Fatalf("partition-dependent accounting: one %x, two %x",
			results[0].Fingerprint, results[1].Fingerprint)
	}
	if results[0].Cycles != results[1].Cycles {
		t.Fatalf("partition-dependent completion: one %d, two %d",
			results[0].Cycles, results[1].Cycles)
	}
}

// TestChaosRestoreInvariance: checkpoint before the kill, restore into a
// fresh card, and the whole recovery must replay bit-identically.
func TestChaosRestoreInvariance(t *testing.T) {
	ref, err := Run(killScenario())
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunWithRestore(killScenario(), 41_000) // off-grid, pre-kill
	if err != nil {
		t.Fatal(err)
	}
	if ref.Fingerprint != res.Fingerprint {
		t.Fatalf("restore diverged: %x vs %x", ref.Fingerprint, res.Fingerprint)
	}
	if ref.Cycles != res.Cycles {
		t.Fatalf("restore finished at %d, reference at %d", res.Cycles, ref.Cycles)
	}
	if ref.Report.Recovered != res.Report.Recovered {
		t.Fatalf("recovery count diverged: %d vs %d", ref.Report.Recovered, res.Report.Recovered)
	}
}

// TestChaosBrownoutAndLossyLink: compound schedule — chip kill, degraded
// PCIe, tight brownout, minimal retries — must still account for every
// task with a known reason.
func TestChaosBrownoutAndLossyLink(t *testing.T) {
	sc := Scenario{
		Name:       "compound",
		Processors: 2,
		Traffic:    TrafficConfig{Seed: 17, Tasks: 40, MeanGap: 800, Scale: 256},
		Fault: fault.Config{
			Seed: 23, ChipKills: 1, ChipKillCycle: 40_000,
			PCIeFaultRate: 0.15,
		},
		Dispatch: card.DispatchConfig{BrownoutDepth: 2, TaskRetries: 1},
	}
	r, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	rep := r.Report
	if rep.Resubmits == 0 {
		t.Fatalf("compound schedule exercised no migration: %+v", rep)
	}
	// Determinism holds under the compound schedule too.
	r2, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r.Fingerprint != r2.Fingerprint {
		t.Fatal("compound schedule not deterministic")
	}
}
