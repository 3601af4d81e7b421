package noc

import (
	"fmt"

	"smarco/internal/sim"
	"smarco/internal/stats"
)

// LinkConfig describes one ring's physical links (§3.3). A link is built
// from 64-bit (8-byte) lanes: FixedLanes are dedicated to each direction,
// FlexLanes are bidirectional and granted per cycle to the direction with
// more demand. SliceBytes divides the granted width into self-governed
// channels; Conventional disables slicing (the whole granted width behaves
// as one wide channel carrying one packet at a time).
type LinkConfig struct {
	LaneBytes    int
	FixedLanes   int
	FlexLanes    int
	SliceBytes   int
	Conventional bool
	// BufferDepth bounds each router input queue (packets).
	BufferDepth int
}

// DefaultMainRing is the paper's main-ring link: eight 64-bit datapaths,
// three fixed per direction plus two bidirectional (512 bits total).
func DefaultMainRing() LinkConfig {
	return LinkConfig{LaneBytes: 8, FixedLanes: 3, FlexLanes: 2, SliceBytes: 2, BufferDepth: 64}
}

// DefaultSubRing is the paper's sub-ring link: four 64-bit datapaths, one
// fixed per direction plus two bidirectional (256 bits total).
func DefaultSubRing() LinkConfig {
	return LinkConfig{LaneBytes: 8, FixedLanes: 1, FlexLanes: 2, SliceBytes: 2, BufferDepth: 64}
}

// maxDirBytes is the widest grant one direction can receive in a cycle.
func (c LinkConfig) maxDirBytes() int { return (c.FixedLanes + c.FlexLanes) * c.LaneBytes }

// slicedCost returns the channel budget a packet consumes: its size rounded
// up to whole slices (small packets on coarse slices waste the remainder —
// the effect Fig. 18 measures).
func (c LinkConfig) slicedCost(size int) int {
	s := c.SliceBytes
	if c.Conventional || s <= 0 {
		// A conventional wide link is one channel of the full width.
		s = c.maxDirBytes()
	}
	return (size + s - 1) / s * s
}

// Direction constants for router outputs.
const (
	dirCW  = 0
	dirCCW = 1
)

// maxEjectPerCycle bounds local deliveries per router per cycle.
const maxEjectPerCycle = 4

// RouterStats aggregates one router's traffic counters.
type RouterStats struct {
	Forwarded  stats.Counter // packets sent on ring links
	BytesSent  stats.Counter // wire bytes sent on ring links
	BytesSpent stats.Counter // channel budget consumed (>= BytesSent)
	Ejected    stats.Counter // packets delivered locally
	StallFull  stats.Counter // transmissions deferred: downstream buffer full
	ActiveCyc  stats.Counter // cycles with at least one ring transmission
}

// Router is one stop on a ring. It owns three input queues (two ring
// directions and a local inject port) and drives two ring outputs plus a
// local eject port, applying greedy sliced-channel allocation (§3.3).
type Router struct {
	ring *Ring
	pos  int
	key  uint64 // unique port-ordering key

	inCW, inCCW *sim.Port[*Packet] // ring traffic, by travel direction
	inject      *sim.Port[*Packet]
	eject       *sim.Port[*Packet]

	// In-flight multi-cycle transmissions per direction. busy counts
	// remaining occupancy cycles; pending holds a fully serialized packet
	// awaiting downstream buffer space.
	busy    [2]int
	pending [2]*Packet

	flt linkFaultState

	seq   uint64
	Stats RouterStats
	trace sim.TraceFn // nil unless a trace is wired in
}

// SetTracer installs a domain-event tracer; backpressure stalls emit "noc"
// events (a router deferring a transmission on a full downstream buffer).
func (r *Router) SetTracer(fn sim.TraceFn) { r.trace = fn }

func newRouter(ring *Ring, pos int, key uint64) *Router {
	depth := ring.cfg.BufferDepth
	return &Router{
		ring:   ring,
		pos:    pos,
		key:    key,
		inCW:   sim.NewPort[*Packet](depth),
		inCCW:  sim.NewPort[*Packet](depth),
		inject: sim.NewPort[*Packet](0),
		eject:  sim.NewPort[*Packet](0),
	}
}

// Pos returns the router's stop index.
func (r *Router) Pos() int { return r.pos }

// Commit implements sim.Ticker; the router has no staged state of its own
// (ports are committed by the engine).
func (r *Router) Commit(uint64) {}

// Tick advances the router one cycle.
func (r *Router) Tick(now uint64) {
	r.finishInflight(now)
	r.flt.tickRetries(now, r.key,
		func(dir int) bool {
			if ok := r.downstreamAccepts(dir); !ok {
				r.Stats.StallFull.Inc()
				return false
			}
			return true
		},
		func(dir int, p *Packet) {
			p.Hops++
			r.ring.neighborIn(r.pos, dir).Send(r.key, r.nextSeq(), p)
			r.Stats.Forwarded.Inc()
			r.Stats.BytesSent.Add(uint64(p.Size))
		})
	// Fast path: a completely idle router (the common case on a lightly
	// loaded 290-router chip) does nothing further this cycle.
	if r.inCW.Empty() && r.inCCW.Empty() && r.inject.Empty() &&
		r.busy[0] == 0 && r.busy[1] == 0 && r.pending[0] == nil && r.pending[1] == nil {
		return
	}
	r.ejectLocal(now)

	budgets := r.allocateLanes()
	sent := false
	for dir := 0; dir < 2; dir++ {
		if r.transmit(now, dir, budgets[dir]) {
			sent = true
		}
	}
	if sent {
		r.Stats.ActiveCyc.Inc()
	}
}

// finishInflight progresses multi-cycle transmissions and delivers packets
// whose serialization completed.
func (r *Router) finishInflight(now uint64) {
	for dir := 0; dir < 2; dir++ {
		if r.busy[dir] > 0 {
			r.busy[dir]--
		}
		if r.busy[dir] == 0 && r.pending[dir] != nil {
			if r.deliver(now, dir, r.pending[dir]) {
				r.pending[dir] = nil
			} else {
				r.Stats.StallFull.Inc()
				if r.trace != nil {
					r.trace("noc", "stall "+r.String(), now)
				}
			}
		}
	}
}

// inputs returns the router's input queues in arbitration order for this
// cycle (rotating round-robin for fairness).
func (r *Router) inputs(now uint64) [3]*sim.Port[*Packet] {
	all := [3]*sim.Port[*Packet]{r.inCW, r.inCCW, r.inject}
	rot := int((now + r.key) % 3)
	return [3]*sim.Port[*Packet]{all[rot], all[(rot+1)%3], all[(rot+2)%3]}
}

// ejectLocal delivers packets addressed to this stop's component.
func (r *Router) ejectLocal(now uint64) {
	ejected := 0
	for _, in := range r.inputs(now) {
		for ejected < maxEjectPerCycle {
			head, ok := in.Peek()
			if !ok || r.ring.routeDir(r, head) != -1 {
				break
			}
			if !r.eject.CanAccept(1) {
				return
			}
			in.Pop()
			head.Hops++
			// SendFrom (not Send) because main-ring eject ports cross shard
			// boundaries to their hub/MC owner; on sub-rings, where the
			// consumer shares the shard, it is equivalent to Send.
			r.eject.SendFrom(r.key, r.nextSeq(), now, head)
			r.Stats.Ejected.Inc()
			ejected++
		}
	}
}

// allocateLanes grants the flex lanes to the direction with more queued
// demand (the paper's bidirectional datapaths).
func (r *Router) allocateLanes() [2]int {
	cfg := r.ring.cfg
	fixed := cfg.FixedLanes * cfg.LaneBytes
	if cfg.FlexLanes == 0 {
		return [2]int{fixed, fixed}
	}
	var demand [2]int
	for _, in := range [3]*sim.Port[*Packet]{r.inCW, r.inCCW, r.inject} {
		if head, ok := in.Peek(); ok {
			if dir := r.ring.routeDir(r, head); dir >= 0 {
				demand[dir] += head.Size
			}
		}
	}
	flex := cfg.FlexLanes * cfg.LaneBytes
	switch {
	case demand[dirCW] > demand[dirCCW]:
		return [2]int{fixed + flex, fixed}
	case demand[dirCCW] > demand[dirCW]:
		return [2]int{fixed, fixed + flex}
	default:
		half := cfg.FlexLanes / 2 * cfg.LaneBytes
		return [2]int{fixed + (flex - half), fixed + half}
	}
}

// transmit performs greedy switch allocation for one output direction:
// it packs as many queued packets as fit into the granted channel budget,
// preferring priority traffic. Returns whether anything was sent.
func (r *Router) transmit(now uint64, dir, budget int) bool {
	if r.busy[dir] > 0 || r.pending[dir] != nil {
		return false
	}
	cfg := r.ring.cfg
	width := budget
	sent := false
	// Two passes: a priority virtual channel first (scanning a bounded
	// window of each queue, so real-time packets are not blocked behind
	// bulk traffic), then head-of-line traffic.
	for pass := 0; pass < 2; pass++ {
		for _, in := range r.inputs(now) {
			for budget > 0 {
				var head *Packet
				var idx int
				var ok bool
				if pass == 0 {
					idx, head, ok = r.findPriority(in, dir)
				} else {
					head, ok = in.Peek()
					if ok && r.ring.routeDir(r, head) != dir {
						ok = false
					}
				}
				if !ok {
					break
				}
				cost := cfg.slicedCost(head.Size)
				if cost > width {
					// Needs multi-cycle serialization: only start when
					// the link is otherwise idle this cycle.
					if sent {
						break
					}
					in.PopAt(idx)
					cycles := (cost + width - 1) / width
					r.busy[dir] = cycles - 1
					r.pending[dir] = head
					r.Stats.BytesSpent.Add(uint64(cost))
					return true
				}
				if cost > budget {
					break
				}
				if !r.downstreamAccepts(dir) {
					r.Stats.StallFull.Inc()
					return sent
				}
				in.PopAt(idx)
				r.deliver(now, dir, head)
				budget -= cost
				r.Stats.BytesSpent.Add(uint64(cost))
				sent = true
				if cfg.Conventional {
					// A wide link moves one packet per cycle.
					return true
				}
			}
		}
	}
	return sent
}

// priorityWindow bounds how deep the priority virtual channel looks into
// each input queue.
const priorityWindow = 64

// findPriority locates the first priority packet routed to dir within the
// scan window of in.
func (r *Router) findPriority(in *sim.Port[*Packet], dir int) (int, *Packet, bool) {
	for i := 0; i < priorityWindow; i++ {
		p, ok := in.At(i)
		if !ok {
			return 0, nil, false
		}
		if p.Priority && r.ring.routeDir(r, p) == dir {
			return i, p, true
		}
	}
	return 0, nil, false
}

func (r *Router) downstreamAccepts(dir int) bool {
	// Committed occupancy plus this router's own sends this cycle: staged
	// traffic from other routers must not influence the decision, or the
	// outcome would depend on tick order across engine partitions.
	return r.ring.neighborIn(r.pos, dir).CanAcceptFrom(r.key, 1)
}

// deliver hands a packet to the downstream router. Returns false if the
// downstream buffer is full (caller retries next cycle). A traversal may be
// faulted by the injector, in which case the packet moves to the retry
// queue and the link cycle is still consumed.
func (r *Router) deliver(now uint64, dir int, p *Packet) bool {
	in := r.ring.neighborIn(r.pos, dir)
	if !in.CanAcceptFrom(r.key, 1) {
		return false
	}
	if r.flt.decide(now, r.key, dir, p) {
		return true
	}
	p.Hops++
	in.Send(r.key, r.nextSeq(), p)
	r.Stats.Forwarded.Inc()
	r.Stats.BytesSent.Add(uint64(p.Size))
	return true
}

func (r *Router) nextSeq() uint64 {
	r.seq++
	return r.seq
}

// InPorts returns the router's own input queues (ring directions + local
// inject) for engine registration: a delivery on any of them re-arms a
// quiescent router.
func (r *Router) InPorts() []interface{ Commit(uint64) } {
	return []interface{ Commit(uint64) }{r.inCW, r.inCCW, r.inject}
}

// RingInPorts returns only the ring-direction input queues — always fed by
// neighbouring routers of the same ring (same shard). Used together with
// InjectPort when the local inject crosses a shard boundary and must be
// registered separately (sim.Engine.AddCrossPortFor).
func (r *Router) RingInPorts() []interface{ Commit(uint64) } {
	return []interface{ Commit(uint64) }{r.inCW, r.inCCW}
}

// InjectPort returns the local inject queue: the port the attached
// component (hub, memory controller, host) sends packets to. When the
// inject crosses a shard boundary, chip.Build stamps it with the
// main-ring latency class (chip.Config.MainRingLatency).
func (r *Router) InjectPort() *sim.Port[*Packet] { return r.inject }

// EjectPort returns the local delivery port; it is an input of the attached
// component (core, hub, memory controller), which should own it. Its
// latency class follows the attachment: DRAMLatency at memory-controller
// stops, SubRingLatency at hub stops (chip.Build stamps whichever
// applies when the eject crosses a shard boundary).
func (r *Router) EjectPort() *sim.Port[*Packet] { return r.eject }

// Quiescent implements sim.Quiescer: idle when the fast-path condition in
// Tick holds (no queued input, no in-flight serialization) and no
// retransmissions are queued. Pending retransmissions keep the router
// sleepable but schedule a timed wake at the earliest due cycle; a due
// retransmission stalled on a full downstream buffer yields wakeAt <= now,
// which the engine treats as "stay awake" (it must poll the neighbour).
func (r *Router) Quiescent(now uint64) (bool, uint64) {
	if !r.inCW.Empty() || !r.inCCW.Empty() || !r.inject.Empty() ||
		r.busy[0] != 0 || r.busy[1] != 0 || r.pending[0] != nil || r.pending[1] != nil {
		return false, 0
	}
	if r.flt.pendingRetries() == 0 {
		return true, sim.WakeNever
	}
	return true, r.flt.nextDue()
}

// String names the router for diagnostics ("sub3.r2").
func (r *Router) String() string { return fmt.Sprintf("%s.r%d", r.ring.Name, r.pos) }

// Progress implements sim.ProgressReporter: packets moved.
func (r *Router) Progress() uint64 {
	return r.Stats.Forwarded.Value() + r.Stats.Ejected.Value()
}

// Health implements sim.HealthReporter: non-empty while traffic pends.
func (r *Router) Health() string {
	queued := r.inCW.Len() + r.inCCW.Len() + r.inject.Len()
	inflight := 0
	for d := 0; d < 2; d++ {
		if r.pending[d] != nil || r.busy[d] > 0 {
			inflight++
		}
	}
	return routerHealth(queued, r.flt.pendingRetries(), inflight)
}
