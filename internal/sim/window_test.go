package sim

import (
	"errors"
	"fmt"
	"testing"

	"smarco/internal/snapshot"
)

// buildTriangle wires three single-component shards in a ring of cross
// ports with heterogeneous latencies: a's in-port takes 8 cycles (fed by
// c), b's takes 2 (fed by a), c's takes 1 (fed by b). The per-shard safe
// windows are therefore 8/2/1 while the global-min window is 1 — the
// smallest machine on which per-shard windows do something.
func buildTriangle(look uint64, parallel bool) (*Engine, [3]*pinger) {
	return buildTriangleLat([3]uint64{8, 2, 1}, look, parallel)
}

// buildTriangleLat is buildTriangle with the in-port latencies of a, b and
// c given.
func buildTriangleLat(lat [3]uint64, look uint64, parallel bool) (*Engine, [3]*pinger) {
	e := NewEngine()
	e.SetParallel(parallel)
	e.SetMaxPartitions(3)
	e.SetLookahead(look)
	pa := NewPort[uint64](0)
	pb := NewPort[uint64](0)
	pc := NewPort[uint64](0)
	pa.SetMinLatency(lat[0])
	pb.SetMinLatency(lat[1])
	pc.SetMinLatency(lat[2])
	a := &pinger{key: 1, out: pb, in: pa, every: 3}
	b := &pinger{key: 2, out: pc, in: pb, every: 5}
	c := &pinger{key: 3, out: pa, in: pc, every: 7}
	e.AddShard("a", a)
	e.AddShard("b", b)
	e.AddShard("c", c)
	e.AddCrossPortFor(a, pa)
	e.AddCrossPortFor(b, pb)
	e.AddCrossPortFor(c, pc)
	return e, [3]*pinger{a, b, c}
}

// TestWindowPlanHetero: the per-shard windows, the done grid, and the
// window report follow the wiring — min incoming latency per shard, max
// window as the grid — and SetLookahead clamps each window individually.
func TestWindowPlanHetero(t *testing.T) {
	e, _ := buildTriangle(0, false)
	if got := e.doneGrid(); got != 8 {
		t.Fatalf("done grid %d, want 8", got)
	}
	if got := e.Lookahead(); got != 1 {
		t.Fatalf("global-min lookahead %d, want 1", got)
	}
	wins, maxWin := e.shardWindows(e.doneGrid())
	if fmt.Sprint(wins) != "[8 2 1]" || maxWin != 8 {
		t.Fatalf("windows %v max %d, want [8 2 1] max 8", wins, maxWin)
	}
	e.SetLookahead(2)
	wins, maxWin = e.shardWindows(e.doneGrid())
	if fmt.Sprint(wins) != "[2 2 1]" || maxWin != 2 {
		t.Fatalf("clamped windows %v max %d, want [2 2 1] max 2", wins, maxWin)
	}
	// The grid ignores the clamp: stop cycles are a wiring fact.
	if got := e.doneGrid(); got != 8 {
		t.Fatalf("done grid under clamp %d, want 8", got)
	}
	e.SetLookahead(0)
	wr := e.WindowReport()
	want := "[{0 a 8 0} {1 b 2 0} {2 c 1 0}]"
	if got := fmt.Sprint(wr); got != want {
		t.Fatalf("window report %v, want %v", got, want)
	}
	// A shard with no incoming cross ports is bounded only by the grid.
	e2 := NewEngine()
	ct := &counterTicker{}
	e2.AddShard("lonely", ct)
	p := NewPort[uint64](0)
	p.SetMinLatency(4)
	peer := &counterTicker{}
	e2.AddShard("peer", peer)
	e2.AddCrossPortFor(peer, p)
	wins, _ = e2.shardWindows(e2.doneGrid())
	if fmt.Sprint(wins) != "[4 4]" {
		t.Fatalf("portless-shard windows %v, want [4 4]", wins)
	}
}

// TestWindowDeliveryTiming: on the heterogeneous machine under per-shard
// windows, every send still arrives on exactly cycle u + latency.
func TestWindowDeliveryTiming(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		e, ps := buildTriangle(0, parallel)
		if _, err := e.Run(200, nil); !errors.Is(err, ErrBudget) {
			t.Fatalf("parallel=%v: %v", parallel, err)
		}
		checks := []struct {
			p    *pinger
			from uint64 // sender key
			lat  uint64
		}{
			{ps[0], 3, 8}, // c -> a over pa (lat 8)
			{ps[1], 1, 2}, // a -> b over pb (lat 2)
			{ps[2], 2, 1}, // b -> c over pc (lat 1)
		}
		for _, ck := range checks {
			if len(ck.p.log) == 0 {
				t.Fatalf("parallel=%v: pinger%d received nothing", parallel, ck.p.key)
			}
			for _, rec := range ck.p.log {
				u := rec[1] - ck.from*1_000_000
				if rec[0] != u+ck.lat {
					t.Fatalf("parallel=%v: send at %d received at %d, want %d (lat %d)",
						parallel, u, rec[0], u+ck.lat, ck.lat)
				}
			}
		}
	}
}

// TestWindowIdentityAcrossModes is the tentpole contract at engine level:
// on the heterogeneous machine the receipt histories are bit-identical
// across {serial, parallel} x lookahead settings, and full windows
// demonstrably run multi-cycle blocks for the wide shard.
func TestWindowIdentityAcrossModes(t *testing.T) {
	run := func(look uint64, parallel bool) ([3][][2]uint64, []ShardWindow) {
		e, ps := buildTriangle(look, parallel)
		if _, err := e.Run(1000, nil); !errors.Is(err, ErrBudget) {
			t.Fatalf("look=%d parallel=%v: %v", look, parallel, err)
		}
		return [3][][2]uint64{ps[0].log, ps[1].log, ps[2].log}, e.WindowReport()
	}
	ref, _ := run(1, false)
	for i, log := range ref {
		if len(log) == 0 {
			t.Fatalf("reference: pinger%d received nothing", i+1)
		}
	}
	for _, look := range []uint64{0, 1, 2, 8} {
		for _, parallel := range []bool{false, true} {
			got, wr := run(look, parallel)
			if fmt.Sprint(got) != fmt.Sprint(ref) {
				t.Fatalf("look=%d parallel=%v: receipt history diverged", look, parallel)
			}
			if look == 0 {
				// Shard a (window 8) must have run multi-cycle blocks: far
				// fewer blocks than cycles. 1000 cycles / window 8 = 125.
				if wr[0].Blocks == 0 || wr[0].Blocks > 200 {
					t.Fatalf("parallel=%v: wide shard ran %d blocks over 1000 cycles, want ~125",
						parallel, wr[0].Blocks)
				}
			}
		}
	}
}

// TestWindowQuantumStop: budget stops land on the exact cycle even when
// the budget is not a multiple of the grid (all shard clocks clamp to the
// stop), resumes realign with the absolute grid, and a done condition
// stops on the identical cycle with full windows and at lookahead 1.
func TestWindowQuantumStop(t *testing.T) {
	for _, look := range []uint64{0, 1} {
		e, _ := buildTriangle(look, false)
		if _, err := e.Run(13, nil); !errors.Is(err, ErrBudget) {
			t.Fatalf("look=%d: %v", look, err)
		}
		if e.Now() != 13 {
			t.Fatalf("look=%d: stopped at %d, want 13", look, e.Now())
		}
		if _, err := e.Run(10, nil); !errors.Is(err, ErrBudget) {
			t.Fatalf("look=%d resume: %v", look, err)
		}
		if e.Now() != 23 {
			t.Fatalf("look=%d: resumed to %d, want 23", look, e.Now())
		}
	}
	stopAt := func(look uint64) uint64 {
		e, ps := buildTriangle(look, false)
		stop, err := e.Run(1000, func() bool { return ps[0].sent >= 20 })
		if err != nil {
			t.Fatalf("look=%d: %v", look, err)
		}
		return stop
	}
	if full, one := stopAt(0), stopAt(1); full != one {
		t.Fatalf("done stop diverged: full windows %d, lookahead 1 %d", full, one)
	}
}

// TestWindowWatchdogIdentity: the watchdog observes the simulation on the
// wiring grid, so a wedged heterogeneous run dies on the identical cycle
// with the identical diagnostic with full windows and at lookahead 1.
func TestWindowWatchdogIdentity(t *testing.T) {
	run := func(look uint64) (uint64, error) {
		e, ps := buildTriangle(look, false)
		for _, p := range ps {
			p.every = 0
		}
		ps[0].in.SendFrom(9, 1, 0, 42)
		e.SetWatchdog(100)
		e.Add(&wedgedHealth{})
		return e.Run(100_000, nil)
	}
	refCycle, refErr := run(1)
	if refErr == nil || !errors.Is(refErr, ErrStalled) {
		t.Fatalf("lookahead-1 wedge: %v", refErr)
	}
	cycle, err := run(0)
	if err == nil || !errors.Is(err, ErrStalled) {
		t.Fatalf("full-window wedge: %v", err)
	}
	if cycle != refCycle || err.Error() != refErr.Error() {
		t.Fatalf("full-window watchdog fired at %d (%v), lookahead 1 at %d (%v)",
			cycle, err, refCycle, refErr)
	}
}

// TestWindowCheckpointRoundTrip: per-shard clocks always realign at run
// boundaries, so a checkpoint taken mid-grid under full windows needs no
// extra state and restores into a lookahead-1 engine (and vice versa)
// onto the identical history.
func TestWindowCheckpointRoundTrip(t *testing.T) {
	ref := func() [3][][2]uint64 {
		e, ps := buildTriangle(1, false)
		if _, err := e.Run(200, nil); !errors.Is(err, ErrBudget) {
			t.Fatal(err)
		}
		return [3][][2]uint64{ps[0].log, ps[1].log, ps[2].log}
	}
	refLogs := ref()

	for _, dir := range []struct {
		name             string
		srcLook, dstLook uint64
		srcPar, dstPar   bool
	}{
		{"full->look1", 0, 1, false, false},
		{"look1->full", 1, 0, false, true},
	} {
		src, sps := buildTriangle(dir.srcLook, dir.srcPar)
		if _, err := src.Run(13, nil); !errors.Is(err, ErrBudget) {
			t.Fatalf("%s: %v", dir.name, err)
		}
		blob := encodeTriangle(t, src, sps)
		dst, dps := buildTriangle(dir.dstLook, dir.dstPar)
		decodeTriangle(t, blob, dst, dps)
		if dst.Now() != 13 {
			t.Fatalf("%s: restored engine at cycle %d, want 13", dir.name, dst.Now())
		}
		if _, err := dst.Run(200-13, nil); !errors.Is(err, ErrBudget) {
			t.Fatalf("%s: %v", dir.name, err)
		}
		got := [3][][2]uint64{dps[0].log, dps[1].log, dps[2].log}
		if fmt.Sprint(got) != fmt.Sprint(refLogs) {
			t.Fatalf("%s: restored run diverged", dir.name)
		}
	}
}

// encodeTriangle serializes the toy machine: engine scheduling state, the
// three cross ports (visible queue + sealed future entries), and pinger
// state.
func encodeTriangle(t *testing.T, e *Engine, ps [3]*pinger) []byte {
	t.Helper()
	enc := snapshot.NewEncoder()
	e.SaveState(enc)
	saveU64 := func(enc *snapshot.Encoder, v uint64) { enc.U64(v) }
	for _, p := range ps {
		SavePort(enc, p.in, saveU64)
		enc.U64(p.sent)
		enc.U32(uint32(len(p.log)))
		for _, rec := range p.log {
			enc.U64(rec[0])
			enc.U64(rec[1])
		}
	}
	return enc.Bytes()
}

func decodeTriangle(t *testing.T, blob []byte, e *Engine, ps [3]*pinger) {
	t.Helper()
	dec := snapshot.NewDecoder(blob)
	e.RestoreState(dec)
	loadU64 := func(dec *snapshot.Decoder) uint64 { return dec.U64() }
	for _, p := range ps {
		RestorePort(dec, p.in, loadU64)
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
