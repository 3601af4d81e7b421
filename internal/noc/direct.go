package noc

import "smarco/internal/sim"

// DirectLink models the star-shaped direct datapath of §3.5.2: a dedicated
// point-to-point channel from a sub-ring to the memory system that lets
// high-priority reads and control messages skip both rings. It applies a
// fixed propagation delay and a per-cycle byte budget in each direction.
type DirectLink struct {
	key        uint64
	delay      uint64
	bytesPerCy int

	// A-side (hub) and B-side (memory) endpoints.
	inA, inB   *sim.Port[*Packet] // components send here
	outA, outB *sim.Port[*Packet] // components drain these

	flightA, flightB delayQueue // toward B / toward A
	seq              uint64

	Sent stats64
}

type stats64 struct{ Packets, Bytes uint64 }

type delayed struct {
	due uint64
	seq uint64
	pkt *Packet
}

// delayQueue is a binary min-heap of packets in flight ordered by
// (due, seq). push and pop sift exactly as container/heap's Push and Pop
// do, without boxing entries, so the array order a checkpoint saves is the
// one container/heap would leave.
type delayQueue []delayed

func (q delayQueue) less(i, j int) bool {
	if q[i].due != q[j].due {
		return q[i].due < q[j].due
	}
	return q[i].seq < q[j].seq
}

func (q *delayQueue) push(x delayed) {
	*q = append(*q, x)
	h := *q
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (q *delayQueue) pop() delayed {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j+1 < n && h.less(j+1, j) {
			j++
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	v := h[n]
	h[n] = delayed{}
	*q = h[:n]
	return v
}

// NewDirectLink builds a direct link with the given one-way delay (cycles)
// and per-direction bandwidth (bytes per cycle).
func NewDirectLink(key uint64, delay uint64, bytesPerCy int) *DirectLink {
	return &DirectLink{
		key:        key,
		delay:      delay,
		bytesPerCy: bytesPerCy,
		inA:        sim.NewPort[*Packet](0),
		inB:        sim.NewPort[*Packet](0),
		outA:       sim.NewPort[*Packet](0),
		outB:       sim.NewPort[*Packet](0),
	}
}

// EndA returns the hub-side send/receive ports. Both directions cross
// the hub/memory shard boundary, so chip.Build registers them as cross
// ports stamped with the memory latency class (chip.Config.DRAMLatency).
func (d *DirectLink) EndA() (send, recv *sim.Port[*Packet]) { return d.inA, d.outA }

// EndB returns the memory-side send/receive ports.
func (d *DirectLink) EndB() (send, recv *sim.Port[*Packet]) { return d.inB, d.outB }

// Ports returns the link's ports for engine registration.
func (d *DirectLink) Ports() []interface{ Commit(uint64) } {
	return []interface{ Commit(uint64) }{d.inA, d.inB, d.outA, d.outB}
}

// InPorts returns the ports the link itself consumes (the two send sides).
// The receive sides (outA/outB) are inputs of the attached hub and memory
// controller and should be registered against those owners.
func (d *DirectLink) InPorts() []interface{ Commit(uint64) } {
	return []interface{ Commit(uint64) }{d.inA, d.inB}
}

// Quiescent implements sim.Quiescer: idle when nothing waits for admission
// and, if packets are in flight, sleeping until the earliest delivery.
func (d *DirectLink) Quiescent(now uint64) (bool, uint64) {
	if !d.inA.Empty() || !d.inB.Empty() {
		return false, 0
	}
	wake := uint64(sim.WakeNever)
	if len(d.flightA) > 0 {
		wake = d.flightA[0].due
	}
	if len(d.flightB) > 0 && d.flightB[0].due < wake {
		wake = d.flightB[0].due
	}
	return true, wake
}

// Tick moves packets: admits up to the byte budget from each input into the
// delay pipe, and delivers due packets.
func (d *DirectLink) Tick(now uint64) {
	d.admit(now, d.inA, &d.flightA)
	d.admit(now, d.inB, &d.flightB)
	d.deliverDue(now, &d.flightA, d.outB)
	d.deliverDue(now, &d.flightB, d.outA)
}

// Commit implements sim.Ticker.
func (d *DirectLink) Commit(uint64) {}

func (d *DirectLink) admit(now uint64, in *sim.Port[*Packet], q *delayQueue) {
	budget := d.bytesPerCy
	for budget > 0 {
		head, ok := in.Peek()
		if !ok || head.Size > budget {
			// Oversized packets serialize: allow one per cycle when the
			// link is otherwise idle.
			if ok && budget == d.bytesPerCy {
				in.Pop()
				extra := uint64((head.Size + d.bytesPerCy - 1) / d.bytesPerCy)
				d.push(q, now+d.delay+extra, head)
			}
			return
		}
		in.Pop()
		budget -= head.Size
		d.push(q, now+d.delay, head)
	}
}

func (d *DirectLink) push(q *delayQueue, due uint64, p *Packet) {
	d.seq++
	q.push(delayed{due: due, seq: d.seq, pkt: p})
	d.Sent.Packets++
	d.Sent.Bytes += uint64(p.Size)
}

func (d *DirectLink) deliverDue(now uint64, q *delayQueue, out *sim.Port[*Packet]) {
	for len(*q) > 0 && (*q)[0].due <= now {
		v := q.pop()
		v.pkt.Hops++
		// SendFrom: the hub-side receive port (outA) crosses into the
		// sub-ring shard; outB stays within the memory shard, where this is
		// equivalent to Send.
		out.SendFrom(d.key, v.seq, now, v.pkt)
	}
}
