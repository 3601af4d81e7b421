package sim

import (
	"runtime"
	"testing"
)

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

// TestRepartitionBitIdentity: changing the partition count between cycles
// reassigns the shards on the tick counts measured so far, and must leave
// the component history as it is on one partition throughout. The reader
// and its peer share a shard; the senders in the other shards, of unequal
// load, reach the sink only through its cross-shard port.
func TestRepartitionBitIdentity(t *testing.T) {
	run := func(every int, counts []int) ([]uint64, []uint64) {
		e := NewEngine()
		c := &counterTicker{}
		r := &readerTicker{peer: c}
		e.AddShard("", r, c)
		port := NewPort[uint64](0)
		for p := 0; p < 3; p++ {
			senders := make([]Ticker, 0, p+1)
			for s := 0; s <= p; s++ {
				senders = append(senders, &portSender{id: uint64(p*4 + s), port: port})
			}
			e.AddShard("", senders...)
		}
		addSink(e, port)
		e.SetMaxPartitions(counts[0])
		for i := 0; i < 50; i++ {
			if every > 0 && i > 0 && i%every == 0 {
				n := counts[(i/every)%len(counts)]
				e.SetMaxPartitions(n)
				if got, want := e.Partitions(), min(n, 5); got != want {
					t.Fatalf("cycle %d: Partitions() = %d after SetMaxPartitions(%d), want %d", i, got, n, want)
				}
			}
			e.Step()
		}
		return r.observed, port.DrainInto(nil, 0)
	}
	refObs, refMsgs := run(0, []int{1})
	for _, tc := range []struct {
		every  int
		counts []int
	}{{0, []int{2}}, {7, []int{2, 3}}, {1, []int{3, 1, 2}}, {13, []int{runtime.GOMAXPROCS(0), 2}}} {
		obs, msgs := run(tc.every, tc.counts)
		if len(obs) != len(refObs) || len(msgs) != len(refMsgs) {
			t.Fatalf("every=%d counts=%v: %d observations and %d messages, want %d and %d",
				tc.every, tc.counts, len(obs), len(msgs), len(refObs), len(refMsgs))
		}
		for i := range refObs {
			if obs[i] != refObs[i] {
				t.Fatalf("every=%d counts=%v: cycle %d observed %d, one partition %d",
					tc.every, tc.counts, i, obs[i], refObs[i])
			}
		}
		for i := range refMsgs {
			if msgs[i] != refMsgs[i] {
				t.Fatalf("every=%d counts=%v: message %d is %d, one partition %d",
					tc.every, tc.counts, i, msgs[i], refMsgs[i])
			}
		}
	}
}

// TestSetMaxPartitionsClamps: a new engine runs one partition, more
// partitions than shards collapses to the shard count, zero is one per CPU
// (at most the shard count), and a negative count panics.
func TestSetMaxPartitionsClamps(t *testing.T) {
	e := NewEngine()
	e.AddShard("", &counterTicker{})
	e.AddShard("", &counterTicker{})
	if got := e.Partitions(); got != 1 {
		t.Fatalf("new engine Partitions() = %d, want 1", got)
	}
	e.SetMaxPartitions(64)
	if got := e.Partitions(); got != 2 {
		t.Fatalf("Partitions() = %d, want 2 (clamped to shard count)", got)
	}
	e.SetMaxPartitions(0)
	if got, want := e.Partitions(), min(runtime.GOMAXPROCS(0), 2); got != want {
		t.Fatalf("Partitions() = %d, want %d (one per CPU)", got, want)
	}
	e.SetMaxPartitions(1)
	if got := e.Partitions(); got != 1 {
		t.Fatalf("Partitions() = %d, want 1", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetMaxPartitions(-1) did not panic")
		}
	}()
	e.SetMaxPartitions(-1)
}

// bareCommitter commits but has no dirty hook, so the engine could never
// learn that it was sent to.
type bareCommitter struct{}

func (bareCommitter) Commit(uint64) {}

// TestPortWithoutDirtyHookPanics: the port phase commits only ports that
// enqueued themselves, so registering a committer without the dirty hook
// is a wiring error, caught at registration.
func TestPortWithoutDirtyHookPanics(t *testing.T) {
	for _, tc := range []struct {
		name     string
		register func(e *Engine, owner Ticker)
	}{
		{"AddPort", func(e *Engine, _ Ticker) { e.AddPort(bareCommitter{}) }},
		{"AddPortFor", func(e *Engine, owner Ticker) { e.AddPortFor(owner, bareCommitter{}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			c := &counterTicker{}
			e.AddShard("x", c)
			defer func() {
				if recover() == nil {
					t.Fatalf("%s of a committer without a dirty hook did not panic", tc.name)
				}
			}()
			tc.register(e, c)
		})
	}
}
