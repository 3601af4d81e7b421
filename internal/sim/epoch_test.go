package sim

import (
	"errors"
	"fmt"
	"testing"

	"smarco/internal/snapshot"
)

// pinger lives alone in its shard and exchanges timestamped values with a
// peer in another shard over cross-registered ports. It records every
// receipt as (cycle, value), which makes any reordering or timing skew
// between lookahead settings visible.
type pinger struct {
	key   uint64
	out   *Port[uint64] // peer's in port (cross-shard)
	in    *Port[uint64] // own in port (cross-shard)
	every uint64
	sent  uint64
	log   [][2]uint64 // {receive cycle, value}
}

func (p *pinger) Tick(now uint64) {
	if p.every > 0 && now%p.every == 0 {
		p.sent++
		p.out.SendFrom(p.key, p.sent, now, p.key*1_000_000+now)
	}
	for {
		v, ok := p.in.Pop()
		if !ok {
			break
		}
		p.log = append(p.log, [2]uint64{now, v})
	}
}
func (p *pinger) Commit(uint64)    {}
func (p *pinger) String() string   { return fmt.Sprintf("pinger%d", p.key) }
func (p *pinger) Progress() uint64 { return p.sent + uint64(len(p.log)) }

// buildPingPong wires two single-component shards with cross ports of the
// given latency, run on at most parts partitions.
func buildPingPong(lat, look uint64, parts int) (*Engine, *pinger, *pinger) {
	e := NewEngine()
	e.SetMaxPartitions(parts)
	e.SetLookahead(look)
	pa := NewPort[uint64](0)
	pb := NewPort[uint64](0)
	pa.SetMinLatency(lat)
	pb.SetMinLatency(lat)
	a := &pinger{key: 1, out: pb, in: pa, every: 3}
	b := &pinger{key: 2, out: pa, in: pb, every: 5}
	e.AddShard("a", a)
	e.AddShard("b", b)
	e.AddCrossPortFor(a, pa)
	e.AddCrossPortFor(b, pb)
	return e, a, b
}

// TestEpochDeliveryTiming: a cross-shard send at cycle u becomes visible at
// exactly u+lat, for any latency, under both the per-cycle and the fused
// epoch path.
func TestEpochDeliveryTiming(t *testing.T) {
	for _, lat := range []uint64{1, 2, 4} {
		e, a, _ := buildPingPong(lat, 0, 1)
		if _, err := e.Run(40, nil); !errors.Is(err, ErrBudget) {
			t.Fatalf("lat=%d: %v", lat, err)
		}
		if len(a.log) == 0 {
			t.Fatalf("lat=%d: pinger a received nothing", lat)
		}
		// Peer b sends at cycles 0, 5, 10, ... carrying value 2e6+u.
		for _, rec := range a.log {
			u := rec[1] - 2_000_000
			if rec[0] != u+lat {
				t.Fatalf("lat=%d: send at %d received at %d, want %d", lat, u, rec[0], u+lat)
			}
		}
	}
}

// TestEpochIdentityAcrossLookahead is the tentpole contract at engine
// level: on a fixed machine (lat=4), every lookahead setting on one and
// two partitions produces the identical receipt history.
func TestEpochIdentityAcrossLookahead(t *testing.T) {
	run := func(look uint64, parts int) ([][2]uint64, [][2]uint64, uint64) {
		e, a, b := buildPingPong(4, look, parts)
		if _, err := e.Run(1000, nil); !errors.Is(err, ErrBudget) {
			t.Fatalf("look=%d parts=%d: %v", look, parts, err)
		}
		return a.log, b.log, e.Epochs()
	}
	refA, refB, _ := run(1, 1)
	if len(refA) == 0 || len(refB) == 0 {
		t.Fatal("reference run exchanged no messages")
	}
	for _, look := range []uint64{0, 1, 2, 3, 4, 9} {
		for _, parts := range []int{1, 2} {
			gotA, gotB, epochs := run(look, parts)
			if fmt.Sprint(gotA) != fmt.Sprint(refA) || fmt.Sprint(gotB) != fmt.Sprint(refB) {
				t.Fatalf("look=%d parts=%d: receipt history diverged", look, parts)
			}
			if (look == 0 || look >= 2) && epochs == 0 {
				t.Fatalf("look=%d parts=%d: fused path never ran", look, parts)
			}
		}
	}
}

// TestEpochEffectiveLookahead: the setting is clamped to the smallest
// cross-port latency; 0 selects the full window.
func TestEpochEffectiveLookahead(t *testing.T) {
	for _, tc := range []struct{ lat, set, want uint64 }{
		{4, 0, 4}, {4, 4, 4}, {4, 2, 2}, {4, 9, 4}, {1, 0, 1}, {1, 4, 1},
	} {
		e, _, _ := buildPingPong(tc.lat, tc.set, 1)
		if got := e.Lookahead(); got != tc.want {
			t.Fatalf("lat=%d set=%d: effective lookahead %d, want %d", tc.lat, tc.set, got, tc.want)
		}
	}
	// No cross ports at all: the window is 1.
	e := NewEngine()
	e.Add(&counterTicker{})
	if got := e.Lookahead(); got != 1 {
		t.Fatalf("engine without cross ports: lookahead %d, want 1", got)
	}
}

// TestEpochQuantumStop: budget stops land on the exact cycle even when the
// budget is not a multiple of the epoch length, and a done condition stops
// on the identical cycle under every lookahead setting.
func TestEpochQuantumStop(t *testing.T) {
	for _, look := range []uint64{1, 2, 4} {
		e, _, _ := buildPingPong(4, look, 1)
		if _, err := e.Run(13, nil); !errors.Is(err, ErrBudget) {
			t.Fatalf("look=%d: %v", look, err)
		}
		if e.Now() != 13 {
			t.Fatalf("look=%d: stopped at %d, want 13", look, e.Now())
		}
		// Resume across the mid-grid boundary: the next run realigns with
		// the absolute grid and still stops exactly on budget.
		if _, err := e.Run(10, nil); !errors.Is(err, ErrBudget) {
			t.Fatalf("look=%d resume: %v", look, err)
		}
		if e.Now() != 23 {
			t.Fatalf("look=%d: resumed to %d, want 23", look, e.Now())
		}
	}
	stopAt := func(look uint64) uint64 {
		e, a, _ := buildPingPong(4, look, 1)
		stop, err := e.Run(1000, func() bool { return a.sent >= 20 })
		if err != nil {
			t.Fatalf("look=%d: %v", look, err)
		}
		return stop
	}
	ref := stopAt(1)
	for _, look := range []uint64{2, 4} {
		if got := stopAt(look); got != ref {
			t.Fatalf("look=%d: done stop at cycle %d, lookahead-1 stop at %d", look, got, ref)
		}
	}
}

// TestEpochWatchdogCycleIdentity: the watchdog observes the simulation on
// the wiring grid, so a wedged run dies on the identical cycle with the
// identical diagnostic under every lookahead setting.
func TestEpochWatchdogCycleIdentity(t *testing.T) {
	run := func(look uint64) (uint64, error) {
		e, a, b := buildPingPong(4, look, 1)
		a.every = 0 // nobody sends: progress freezes immediately
		b.every = 0
		a.in.SendFrom(9, 1, 0, 42) // pending work keeps Health non-empty below
		e.SetWatchdog(100)
		e.Add(&wedgedHealth{})
		return e.Run(100_000, nil)
	}
	refCycle, refErr := run(1)
	if refErr == nil || !errors.Is(refErr, ErrStalled) {
		t.Fatalf("lookahead-1 wedge: %v", refErr)
	}
	for _, look := range []uint64{2, 4, 0} {
		cycle, err := run(look)
		if err == nil || !errors.Is(err, ErrStalled) {
			t.Fatalf("look=%d wedge: %v", look, err)
		}
		if cycle != refCycle || err.Error() != refErr.Error() {
			t.Fatalf("look=%d: watchdog fired at %d (%v), lookahead-1 at %d (%v)",
				look, cycle, err, refCycle, refErr)
		}
	}
}

// wedgedHealth reports pending work forever without progressing.
type wedgedHealth struct{}

func (wedgedHealth) Tick(uint64)      {}
func (wedgedHealth) Commit(uint64)    {}
func (wedgedHealth) String() string   { return "wedged-unit" }
func (wedgedHealth) Progress() uint64 { return 0 }
func (wedgedHealth) Health() string   { return "1 request wedged" }

// TestSendOnCrossPortPanics: cross-shard ports require the timestamped
// SendFrom; the untimestamped Send has no release cycle to stamp.
func TestSendOnCrossPortPanics(t *testing.T) {
	e, _, b := buildPingPong(4, 0, 1)
	_ = e
	defer func() {
		if recover() == nil {
			t.Fatal("Send on a cross-shard port did not panic")
		}
	}()
	b.out.Send(2, 1, 7)
}

// TestBoundedCrossPortPanics: backpressure (CanAcceptFrom against a visible
// length) cannot be evaluated race-free across shards mid-epoch, so
// cross-registering a bounded port is a wiring error.
func TestBoundedCrossPortPanics(t *testing.T) {
	e := NewEngine()
	c := &counterTicker{}
	e.AddShard("x", c)
	p := NewPort[int](8)
	defer func() {
		if recover() == nil {
			t.Fatal("cross-registering a bounded port did not panic")
		}
	}()
	e.AddCrossPortFor(c, p)
}

// TestEpochSettleMidGrid: Settle extends quiescence-skipped statistics to
// the current cycle even when a budget stop lands mid-epoch.
func TestEpochSettleMidGrid(t *testing.T) {
	e, _, _ := buildPingPong(4, 4, 1)
	cu := &catchUpRecorder{}
	e.Add(cu)
	if _, err := e.Run(7, nil); !errors.Is(err, ErrBudget) {
		t.Fatal(err)
	}
	e.Settle()
	if cu.last != 7 {
		t.Fatalf("Settle caught up to cycle %d, want 7", cu.last)
	}
}

type catchUpRecorder struct {
	last uint64
}

func (c *catchUpRecorder) Tick(uint64)        {}
func (c *catchUpRecorder) Commit(uint64)      {}
func (c *catchUpRecorder) CatchUp(now uint64) { c.last = now }
func (c *catchUpRecorder) String() string     { return "catch-up-recorder" }

// TestEpochCheckpointRoundTrip: a checkpoint taken at a mid-grid budget
// stop carries sealed future deliveries with their absolute release cycles,
// so restoring into an engine running a different lookahead setting
// converges on the identical receipt history.
func TestEpochCheckpointRoundTrip(t *testing.T) {
	ref := func() ([][2]uint64, [][2]uint64) {
		e, a, b := buildPingPong(4, 1, 1)
		if _, err := e.Run(200, nil); !errors.Is(err, ErrBudget) {
			t.Fatal(err)
		}
		return a.log, b.log
	}
	refA, refB := ref()

	// Run the first 13 cycles (mid-grid) at full lookahead, snapshot the
	// ports and scheduling state by hand, and resume at lookahead 1.
	src, sa, sb := buildPingPong(4, 0, 1)
	if _, err := src.Run(13, nil); !errors.Is(err, ErrBudget) {
		t.Fatal(err)
	}
	blob := encodePingPong(t, src, sa, sb)
	dst, da, db := buildPingPong(4, 1, 1)
	decodePingPong(t, blob, dst, da, db)
	if dst.Now() != 13 {
		t.Fatalf("restored engine at cycle %d, want 13", dst.Now())
	}
	if _, err := dst.Run(200-13, nil); !errors.Is(err, ErrBudget) {
		t.Fatal(err)
	}
	if fmt.Sprint(da.log) != fmt.Sprint(refA) || fmt.Sprint(db.log) != fmt.Sprint(refB) {
		t.Fatalf("restored run diverged:\n a=%v\nwant %v\n b=%v\nwant %v", da.log, refA, db.log, refB)
	}
}

// encodePingPong serializes the toy machine: engine scheduling state, both
// cross ports (visible queue + sealed future entries), and pinger state.
func encodePingPong(t *testing.T, e *Engine, a, b *pinger) []byte {
	t.Helper()
	enc := snapshot.NewEncoder()
	e.SaveState(enc)
	saveU64 := func(enc *snapshot.Encoder, v uint64) { enc.U64(v) }
	SavePort(enc, a.in, saveU64)
	SavePort(enc, b.in, saveU64)
	for _, p := range []*pinger{a, b} {
		enc.U64(p.sent)
		enc.U32(uint32(len(p.log)))
		for _, rec := range p.log {
			enc.U64(rec[0])
			enc.U64(rec[1])
		}
	}
	return enc.Bytes()
}

func decodePingPong(t *testing.T, blob []byte, e *Engine, a, b *pinger) {
	t.Helper()
	dec := snapshot.NewDecoder(blob)
	e.RestoreState(dec)
	loadU64 := func(dec *snapshot.Decoder) uint64 { return dec.U64() }
	RestorePort(dec, a.in, loadU64)
	RestorePort(dec, b.in, loadU64)
	for _, p := range []*pinger{a, b} {
		p.sent = dec.U64()
		p.log = p.log[:0]
		n := int(dec.U32())
		for i := 0; i < n; i++ {
			c := dec.U64()
			v := dec.U64()
			p.log = append(p.log, [2]uint64{c, v})
		}
	}
	if err := dec.Err(); err != nil {
		t.Fatalf("decode: %v", err)
	}
}
