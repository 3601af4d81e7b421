package sim

import (
	"runtime"
	"testing"
)

// sleeperTicker quiesces permanently after its first cycle, so its shard
// accrues essentially no ticks.
type sleeperTicker struct{}

func (*sleeperTicker) Tick(uint64)                     {}
func (*sleeperTicker) Commit(uint64)                   {}
func (*sleeperTicker) Quiescent(uint64) (bool, uint64) { return true, WakeNever }

// TestAssignIsolatesHeavyShard: LPT assignment must put a shard that
// dominates the load estimate on its own partition.
func TestAssignIsolatesHeavyShard(t *testing.T) {
	e := NewEngine()
	// Before any cycle runs there are no tick counts, so the estimate
	// falls back to the component count: shard 0 holds eight, the others
	// one each.
	group := make([]Ticker, 8)
	for i := range group {
		group[i] = &counterTicker{}
	}
	e.AddShard("", group...)
	for i := 0; i < 4; i++ {
		e.AddShard("", &counterTicker{})
	}
	e.SetParallel(true)
	e.SetMaxPartitions(2)
	if got := e.Partitions(); got != 2 {
		t.Fatalf("Partitions() = %d, want 2", got)
	}
	load := e.LoadReport()
	if len(load) != 5 {
		t.Fatalf("LoadReport has %d rows, want 5", len(load))
	}
	heavy := load[0].Partition
	for _, row := range load[1:] {
		if row.Partition == heavy {
			t.Fatalf("light shard %d shares partition %d with the heavy shard", row.Shard, heavy)
		}
	}
}

// TestRepartitionFollowsMeasuredLoad: after running, the assignment must be
// driven by per-shard tick counts, not the initial component counts. Shard
// 0 holds the most components but they all quiesce after one cycle; the
// three busy shards tick every cycle. A repartition mid-run must not leave
// the busy shards packed together.
func TestRepartitionFollowsMeasuredLoad(t *testing.T) {
	e := NewEngine()
	idle := make([]Ticker, 8) // stale estimate: the idle shard looks heaviest
	for i := range idle {
		idle[i] = &sleeperTicker{}
	}
	e.AddShard("idle", idle...)
	busy := make([]*counterTicker, 3)
	for i := range busy {
		busy[i] = &counterTicker{}
		e.AddShard("", busy[i])
	}
	e.SetParallel(true)
	e.SetMaxPartitions(2)
	e.SetRepartition(16)
	if _, err := e.Run(1_000, func() bool { return e.Now() >= 64 }); err != nil {
		t.Fatal(err)
	}
	load := e.LoadReport()
	// The three busy shards accrued equal ticks; after repartitioning on
	// measured load they must span both partitions rather than all hiding
	// from the idle shard on one.
	parts := map[int]bool{}
	for _, row := range load[1:] {
		parts[row.Partition] = true
	}
	if len(parts) != 2 {
		t.Fatalf("busy shards all on one partition after repartition: %+v", load)
	}
	for _, b := range busy {
		if b.visible == 0 {
			t.Fatal("busy ticker never ran")
		}
	}
}

// TestLoadReportTickShares: tick shares are a probability distribution over
// shards and reflect who actually ran.
func TestLoadReportTickShares(t *testing.T) {
	e := NewEngine()
	e.AddShard("a", &counterTicker{})
	e.AddShard("b", &counterTicker{}, &counterTicker{})
	for i := 0; i < 10; i++ {
		e.Step()
	}
	load := e.LoadReport()
	var sum float64
	for _, row := range load {
		sum += row.TickShare
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("tick shares sum to %g, want 1", sum)
	}
	if load[0].Ticks != 10 || load[1].Ticks != 20 {
		t.Fatalf("ticks = %d/%d, want 10/20", load[0].Ticks, load[1].Ticks)
	}
	if load[0].Label != "a" || load[1].Label != "b" {
		t.Fatalf("labels = %q/%q", load[0].Label, load[1].Label)
	}
	if load[1].Components != 2 {
		t.Fatalf("shard b has %d components, want 2", load[1].Components)
	}
}

// TestRepartitionBitIdentity: the same workload with and without periodic
// repartitioning produces identical component history.
func TestRepartitionBitIdentity(t *testing.T) {
	run := func(repart uint64, parts int) []uint64 {
		e := NewEngine()
		c := &counterTicker{}
		r := &readerTicker{peer: c}
		e.AddShard("", r)
		e.AddShard("", c)
		e.AddShard("", &counterTicker{}, &counterTicker{})
		e.SetParallel(parts > 0)
		if parts > 0 {
			e.SetMaxPartitions(parts)
		}
		e.SetRepartition(repart)
		for i := 0; i < 50; i++ {
			e.Step()
		}
		return r.observed
	}
	ref := run(0, 0)
	for _, tc := range []struct {
		repart uint64
		parts  int
	}{{0, 2}, {7, 2}, {1, 3}, {13, runtime.GOMAXPROCS(0)}} {
		got := run(tc.repart, tc.parts)
		if len(got) != len(ref) {
			t.Fatalf("repart=%d parts=%d: %d observations, want %d", tc.repart, tc.parts, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("repart=%d parts=%d: cycle %d observed %d, serial %d",
					tc.repart, tc.parts, i, got[i], ref[i])
			}
		}
	}
}

// TestSetMaxPartitionsClamps: more partitions than shards collapses to the
// shard count, and zero restores the GOMAXPROCS default.
func TestSetMaxPartitionsClamps(t *testing.T) {
	e := NewEngine()
	e.AddShard("", &counterTicker{})
	e.AddShard("", &counterTicker{})
	e.SetParallel(true)
	e.SetMaxPartitions(64)
	if got := e.Partitions(); got != 2 {
		t.Fatalf("Partitions() = %d, want 2 (clamped to shard count)", got)
	}
	e.SetMaxPartitions(0)
	want := runtime.GOMAXPROCS(0)
	if want > 2 {
		want = 2
	}
	if got := e.Partitions(); got != want {
		t.Fatalf("Partitions() = %d, want %d (GOMAXPROCS default)", got, want)
	}
	e.SetParallel(false)
	if got := e.Partitions(); got != 1 {
		t.Fatalf("serial Partitions() = %d, want 1", got)
	}
}
