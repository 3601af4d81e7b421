package noc

import "testing"

// BenchmarkRouterTick times one cycle of the middle router of a three-stop
// sub-ring, called directly: "idle" with nothing queued, and "forward"
// with one 16-byte packet arriving from each neighbour every cycle and
// leaving toward the other. The forward case also commits the router's
// input and output ports and drains the outputs, as the engine's port
// phase and the neighbours would.
func BenchmarkRouterTick(b *testing.B) {
	build := func() (*Ring, *Router) {
		r := MustNewRing("bench", 3, DefaultSubRing(), 0)
		for s := 0; s < 3; s++ {
			r.Attach(s, CoreNode(s))
		}
		return r, r.Router(1)
	}
	b.Run("idle", func(b *testing.B) {
		_, rt := build()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rt.Tick(uint64(i))
			rt.Commit(uint64(i))
		}
	})
	b.Run("forward", func(b *testing.B) {
		r, rt := build()
		outCW, outCCW := r.Router(2).inCW, r.Router(0).inCCW
		cw := &Packet{ID: 1, Src: CoreNode(0), Dst: CoreNode(2), Size: 16}
		ccw := &Packet{ID: 2, Src: CoreNode(2), Dst: CoreNode(0), Size: 16}
		var sink []*Packet
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			now := uint64(i)
			rt.inCW.Send(0, now, cw)
			rt.inCCW.Send(2, now, ccw)
			rt.inCW.Commit(now)
			rt.inCCW.Commit(now)
			rt.Tick(now)
			rt.Commit(now)
			outCW.Commit(now)
			outCCW.Commit(now)
			sink = outCW.DrainInto(sink[:0], 0)
			sink = outCCW.DrainInto(sink[:0], 0)
		}
		if rt.Stats.Forwarded.Value() < uint64(b.N) {
			b.Fatalf("forwarded %d packets in %d cycles", rt.Stats.Forwarded.Value(), b.N)
		}
	})
}
