package noc

import (
	"bytes"
	"container/heap"
	"crypto/sha256"
	"fmt"
	"testing"

	"smarco/internal/sim"
	"smarco/internal/snapshot"
)

// TestDirectLinkSaveStateBytesPinned sends packets of mixed sizes both
// ways over a direct link, so oversized packets land in its delay queues
// out of due order, and stops it at several cycles. At each it compares
// the link's SaveState length and SHA-256 with digests recorded before
// the delay queues became typed heaps (the heap array order is saved
// verbatim), checks Save -> Restore -> Save byte identity, and checks how
// many packets were in flight.
func TestDirectLinkSaveStateBytesPinned(t *testing.T) {
	points := []struct {
		cycle    int
		inFlight int
		wantLen  int
		digest   string
	}{
		{2, 2, 940, "9dffa79db19edb78a87e69140ac78897b6976c401796803c0e8a1885c7355d82"},
		{4, 6, 1004, "5a46006dfc86dbef8b7a9eb441870db9e77e9d0f3653ed7e965a7373702d691e"},
		{7, 14, 1132, "844bae030a6e861f69fb0c710f9c6c5ce0b1d5757bccde50c412ef0e6c3632d8"},
		{11, 13, 815, "0f265abca2d403d362040118274c677f85457b75f7c2fd272b3c3733ece6458b"},
	}
	build := func() (*DirectLink, *sim.Engine) {
		d := NewDirectLink(1, 6, 16)
		eng := sim.NewEngine()
		eng.Add(d)
		eng.AddPortFor(d, d.Ports()...)
		return d, eng
	}
	d, eng := build()
	sendA, _ := d.EndA()
	sendB, _ := d.EndB()
	sizes := []int{8, 40, 8, 16, 24, 8, 8, 56, 8, 16}
	for i, size := range sizes {
		sendA.Send(0, uint64(i), &Packet{ID: uint64(i), Size: size})
		sendB.Send(0, uint64(i), &Packet{ID: uint64(100 + i), Size: sizes[len(sizes)-1-i]})
	}
	for _, pt := range points {
		for int(eng.Now()) < pt.cycle {
			eng.Step()
		}
		e := snapshot.NewEncoder()
		d.SaveState(e)
		got := fmt.Sprintf("%x", sha256.Sum256(e.Bytes()))
		if n := len(d.flightA) + len(d.flightB); e.Len() != pt.wantLen || got != pt.digest || n != pt.inFlight {
			t.Errorf("cycle %d: %d bytes, sha256 %s, %d in flight; want %d bytes, sha256 %s, %d in flight",
				pt.cycle, e.Len(), got, n, pt.wantLen, pt.digest, pt.inFlight)
		}
		r, _ := build()
		dec := snapshot.NewDecoder(e.Bytes())
		r.RestoreState(dec)
		if err := dec.Err(); err != nil || dec.Remaining() != 0 {
			t.Fatalf("cycle %d: restore: err %v, %d bytes left", pt.cycle, err, dec.Remaining())
		}
		e2 := snapshot.NewEncoder()
		r.SaveState(e2)
		if !bytes.Equal(e.Bytes(), e2.Bytes()) {
			t.Fatalf("cycle %d: Save -> Restore -> Save changed the bytes", pt.cycle)
		}
	}
}

// refDelayQueue is the delay queue as container/heap drove it.
type refDelayQueue []delayed

func (r refDelayQueue) Len() int           { return len(r) }
func (r refDelayQueue) Less(i, j int) bool { return delayQueue(r).less(i, j) }
func (r refDelayQueue) Swap(i, j int)      { r[i], r[j] = r[j], r[i] }
func (r *refDelayQueue) Push(x any)        { *r = append(*r, x.(delayed)) }
func (r *refDelayQueue) Pop() any {
	old := *r
	v := old[len(old)-1]
	*r = old[:len(old)-1]
	return v
}

// TestDelayQueueMatchesContainerHeap: over random pushes (with colliding
// due cycles) and pops, the typed heap pops the same entries and leaves
// the same array as container/heap after every operation.
func TestDelayQueueMatchesContainerHeap(t *testing.T) {
	rng := sim.NewRNG(11)
	var q delayQueue
	var ref refDelayQueue
	for op := uint64(0); op < 5000; op++ {
		if len(q) == 0 || rng.Intn(2) == 0 {
			x := delayed{due: uint64(rng.Intn(40)), seq: op}
			q.push(x)
			heap.Push(&ref, x)
		} else if got, want := q.pop(), heap.Pop(&ref).(delayed); got.seq != want.seq {
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

// TestDelayQueueAllocatesNothing: with room in its array, a push plus a
// pop allocates nothing (container/heap boxed the entry both ways).
func TestDelayQueueAllocatesNothing(t *testing.T) {
	q := make(delayQueue, 0, 16)
	for i := uint64(0); i < 8; i++ {
		q.push(delayed{due: 100 - i, seq: i})
	}
	seq := uint64(8)
	if n := testing.AllocsPerRun(100, func() {
		seq++
		q.push(delayed{due: seq % 7, seq: seq})
		q.pop()
	}); n != 0 {
		t.Fatalf("push+pop: %v allocs, want 0", n)
	}
}
