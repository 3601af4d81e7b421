package dram

import (
	"bytes"
	"container/heap"
	"crypto/sha256"
	"fmt"
	"testing"

	"smarco/internal/noc"
	"smarco/internal/sim"
	"smarco/internal/snapshot"
)

// TestSaveStateBytesPinned drives a controller through a burst of row hits,
// row misses and wide reads on every bank, so its completion heap holds
// entries pushed out of due order, and stops it at several cycles. At each
// it compares the controller's SaveState length and SHA-256 with digests
// recorded before the completion heap became a typed heap (the heap array
// order is saved verbatim), checks Save -> Restore -> Save byte identity,
// and checks how many completions were in flight.
func TestSaveStateBytesPinned(t *testing.T) {
	points := []struct {
		cycle    int
		inFlight int
		wantLen  int
		digest   string
	}{
		{3, 2, 2993, "2aba22bf63cc105a3b16cfe5f55844f4c1446877538c4927100c4fa8bea1cb91"},
		{6, 6, 3081, "0dc40abd74b386b6c5514ba1f0fc1d3cf13b53d5cf45456d1a3829c12de69ac8"},
		{12, 8, 3129, "9de739edde39da986364f4aaee07652b8429253f34d32e6937df655fac4c2c8c"},
		{45, 8, 2937, "85b4731bb276060d5e11fd4bc62de030f805882070799161e997bae4a1f8240c"},
		{48, 8, 2623, "941d8b2dd3c1e49de29900f3057fe3c2a491f186124893bd8d6343870fda3fab"},
		{70, 8, 2145, "2a534c9b15e6d70a6d6d3e627570ffe71568affb37591a3936ae20e1563b978d"},
		{95, 8, 1745, "ed6ecd5dad40d54516b53d8482251e222625c656b7e28cb1b5bc65e50e22dea7"},
	}
	h := newHarness(DDR4())
	id := uint64(0)
	for round := uint64(0); round < 3; round++ {
		for b := uint64(0); b < 8; b++ {
			id++
			addr := b*64 + round*0x10000 // a new row on every bank each round
			if round == 1 && b%2 == 0 {
				addr = b*64 + 0x200 // row hit on the row round 0 opened
			}
			size := 8
			if (b+round)%3 == 0 {
				size = 64 // extends the bank's occupancy by two bus cycles
			}
			h.send(noc.NewMemReqPacket(id, noc.CoreNode(0), noc.MCNode(0),
				noc.MemReq{ID: id, Addr: addr, Size: size}, false, b == 5, 0))
		}
	}
	var log [][2]uint64
	for _, pt := range points {
		h.responses(pt.cycle-int(h.eng.Now()), &log)
		e := snapshot.NewEncoder()
		h.ctl.SaveState(e)
		got := fmt.Sprintf("%x", sha256.Sum256(e.Bytes()))
		if e.Len() != pt.wantLen || got != pt.digest || len(h.ctl.done) != pt.inFlight {
			t.Errorf("cycle %d: %d bytes, sha256 %s, %d in flight; want %d bytes, sha256 %s, %d in flight",
				pt.cycle, e.Len(), got, len(h.ctl.done), pt.wantLen, pt.digest, pt.inFlight)
		}
		r := newHarness(DDR4())
		d := snapshot.NewDecoder(e.Bytes())
		r.ctl.RestoreState(d)
		if err := d.Err(); err != nil || d.Remaining() != 0 {
			t.Fatalf("cycle %d: restore: err %v, %d bytes left", pt.cycle, err, d.Remaining())
		}
		e2 := snapshot.NewEncoder()
		r.ctl.SaveState(e2)
		if !bytes.Equal(e.Bytes(), e2.Bytes()) {
			t.Fatalf("cycle %d: Save -> Restore -> Save changed the bytes", pt.cycle)
		}
	}
	h.responses(300-int(h.eng.Now()), &log)
	if len(log) != int(id) {
		t.Fatalf("%d of %d requests answered by cycle %d", len(log), id, h.eng.Now())
	}
}

// refQueue is the completion heap as container/heap drove it.
type refQueue []completion

func (r refQueue) Len() int           { return len(r) }
func (r refQueue) Less(i, j int) bool { return completionQueue(r).less(i, j) }
func (r refQueue) Swap(i, j int)      { r[i], r[j] = r[j], r[i] }
func (r *refQueue) Push(x any)        { *r = append(*r, x.(completion)) }
func (r *refQueue) Pop() any {
	old := *r
	v := old[len(old)-1]
	*r = old[:len(old)-1]
	return v
}

// TestCompletionQueueMatchesContainerHeap: over random pushes (with
// colliding due cycles) and pops, the typed heap pops the same entries and
// leaves the same array as container/heap after every operation.
func TestCompletionQueueMatchesContainerHeap(t *testing.T) {
	rng := sim.NewRNG(7)
	var q completionQueue
	var ref refQueue
	for op := uint64(0); op < 5000; op++ {
		if len(q) == 0 || rng.Intn(2) == 0 {
			x := completion{due: uint64(rng.Intn(40)), seq: op}
			q.push(x)
			heap.Push(&ref, x)
		} else if got, want := q.pop(), heap.Pop(&ref).(completion); got.seq != want.seq {
			t.Fatalf("op %d: popped seq %d, container/heap seq %d", op, got.seq, want.seq)
		}
		for i := range q {
			if q[i].due != ref[i].due || q[i].seq != ref[i].seq {
				t.Fatalf("op %d: entry %d is (%d, %d), container/heap has (%d, %d)",
					op, i, q[i].due, q[i].seq, ref[i].due, ref[i].seq)
			}
		}
	}
}

// TestCompletionQueueAllocatesNothing: with room in its array, a push plus
// a pop allocates nothing (container/heap boxed the entry both ways).
func TestCompletionQueueAllocatesNothing(t *testing.T) {
	q := make(completionQueue, 0, 16)
	for i := uint64(0); i < 8; i++ {
		q.push(completion{due: 100 - i, seq: i})
	}
	seq := uint64(8)
	if n := testing.AllocsPerRun(100, func() {
		seq++
		q.push(completion{due: seq % 7, seq: seq})
		q.pop()
	}); n != 0 {
		t.Fatalf("push+pop: %v allocs, want 0", n)
	}
}
