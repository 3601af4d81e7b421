package sim

import (
	"sync"
	"sync/atomic"
)

// Port is a deterministic single-consumer message queue connecting simulated
// components. Any number of producers may Send during the tick phase of a
// cycle; the engine then commits the port, at which point the staged messages
// are sorted by their (sender, sequence) key and appended to the visible
// queue. The owning component drains the queue during a later tick.
//
// Sorting by key is what keeps the simulation deterministic under the
// parallel executor: goroutine interleaving can change the order in which
// Send is called, but never the committed order.
//
// Locking contract: a plain port's producers and its owner run in one
// shard (components in different shards interact only through cross-shard
// ports; DESIGN.md §12), so on one goroutine, and its staging takes no
// lock. A cross-shard port's producers sit in other shards and may stage
// from two goroutines within one dispatch, so its staging goes under the
// mutex. Commit and Seal run when no producer can stage (the engine's
// round barriers order them), so they take no lock. The visible queue is
// owner-only state — read and written exclusively by the owning shard's
// goroutine (Tick consumption and port commit both run there) or by
// harness code between runs. Queue accessors (Peek, Pop, DrainInto, ...)
// therefore take no lock; a component must never touch another
// component's port queue.
//
// Cross-shard ports (Engine.AddCrossPortFor) additionally declare a minimum
// delivery latency. Producers stamp sends with the current cycle (SendFrom);
// the engine seals staged envelopes into a future list at round barriers
// and releases each on the exact cycle its timestamp dictates, which is
// what lets shards run multiple cycles between barriers without changing
// the simulated history. See DESIGN.md §12 for the lookahead contract.
type Port[T any] struct {
	mu     sync.Mutex // guards staged and dirty on a cross-shard port
	staged []envelope[T]
	queue  []T
	cap    int // 0 = unbounded
	// future holds sealed cross-shard envelopes ordered by (at, key, seq),
	// waiting for their release cycle. Owner/barrier access only.
	future []envelope[T]
	// nextDue caches future[0].at (WakeNever when future is empty) so the
	// owner's per-cycle release check is one plain load. Written at seals
	// and releases, both ordered against readers by the round barriers.
	nextDue uint64
	lat     uint64 // declared MinLatency; 0 means the default of 1
	cross   bool   // registered as a cross-shard port: Send must carry a cycle
	// visLen mirrors len(queue) so producers on other goroutines can apply
	// flow control without reading the owner's queue.
	visLen atomic.Int32
	// dirty is set by the first Send of a cycle and cleared by Commit/Seal.
	// An idle port is never visited by the engine at all: the transition to
	// dirty fires onDirty, which enqueues the port on its shard's commit
	// list (or the engine's cross-port seal list).
	dirty bool
	// onDirty, when set, fires on the clean→dirty transition (at most once
	// per cycle). The engine uses it to schedule the port for commit.
	onDirty func()
	// onDeliver, when set, fires after a commit or release publishes at
	// least one new message, with the cycle the messages become visible.
	// The engine uses it to re-arm a quiesced consumer.
	onDeliver func(visibleAt uint64)
}

type envelope[T any] struct {
	key uint64
	seq uint64
	at  uint64 // delivery cycle; 0 = legacy "next commit publishes"
	msg T
}

// NewPort returns a port with the given visible-queue capacity.
// capacity <= 0 means unbounded.
func NewPort[T any](capacity int) *Port[T] {
	return &Port[T]{cap: capacity, nextDue: WakeNever}
}

// SetOnDeliver installs a callback fired whenever new messages become
// visible, with the first cycle the consumer can observe them. It must be
// set during wiring, before the simulation runs. Commit and ReleaseDue
// fire it on the goroutine that executes the owner's shard, or between
// dispatches.
func (p *Port[T]) SetOnDeliver(f func(visibleAt uint64)) { p.onDeliver = f }

// SetOnDirty installs the clean→dirty callback (see Engine registration).
// Like SetOnDeliver it must be set during wiring; it runs on the goroutine
// of the Send that dirtied the port. A port that was sent to before
// registration is already dirty, so the callback fires immediately to
// schedule it.
func (p *Port[T]) SetOnDirty(f func()) {
	p.onDirty = f
	if p.dirty {
		f()
	}
}

// SetMinLatency declares the minimum delivery latency of the port: a
// message sent (SendFrom) at cycle t becomes visible at t+lat, never
// earlier. The default (0) means 1, the classic next-cycle delivery. The
// engine's conservative lookahead is the minimum declared latency over a
// shard's inbound cross-shard ports, so wiring code should declare the true
// physical latency of the modelled link. Must be set before the simulation
// runs.
func (p *Port[T]) SetMinLatency(lat uint64) { p.lat = lat }

// MinLatency returns the declared minimum delivery latency (at least 1).
func (p *Port[T]) MinLatency() uint64 {
	if p.lat == 0 {
		return 1
	}
	return p.lat
}

// markCross flags the port as cross-shard registered: producers must use
// SendFrom (the engine needs send cycles to buffer deliveries across round
// barriers) and stage under the lock, and the port must be unbounded —
// occupancy-based flow control would make producers read the consumer's
// mid-window state.
func (p *Port[T]) markCross() {
	if p.cap > 0 {
		panic("sim: cross-shard port must be unbounded (flow control reads the consumer's queue)")
	}
	p.cross = true
}

// Send stages msg for delivery at the end of the current cycle. key orders
// concurrent senders (use a globally unique sender ID); seq orders multiple
// messages from one sender within one cycle. Cross-shard ports reject Send:
// their producers must stamp the send cycle via SendFrom.
func (p *Port[T]) Send(key, seq uint64, msg T) {
	if p.cross {
		panic("sim: Send on a cross-shard port (producers must use SendFrom)")
	}
	p.stage(envelope[T]{key: key, seq: seq, msg: msg})
}

// SendFrom stages msg sent at cycle now for delivery at now+MinLatency.
// It is the timestamped form of Send, required on cross-shard ports and
// equivalent to Send on ports with the default latency of 1.
func (p *Port[T]) SendFrom(key, seq, now uint64, msg T) {
	p.stage(envelope[T]{key: key, seq: seq, at: now + p.MinLatency(), msg: msg})
}

func (p *Port[T]) stage(env envelope[T]) {
	if p.cross {
		p.mu.Lock()
	}
	p.staged = append(p.staged, env)
	first := !p.dirty
	p.dirty = true
	if p.cross {
		p.mu.Unlock()
	}
	if first && p.onDirty != nil {
		p.onDirty()
	}
}

// CanAccept reports whether the committed queue has room for n more
// messages. It deliberately ignores messages staged by other senders this
// cycle: counting them would make credit decisions depend on tick order,
// which diverges under the parallel executor. A sender that issues several
// messages in one tick should use CanAcceptFrom to count its own staged
// traffic. The port never rejects a Send; this is a flow-control hint.
func (p *Port[T]) CanAccept(n int) bool {
	if p.cap <= 0 {
		return true
	}
	return int(p.visLen.Load())+n <= p.cap
}

// CanAcceptFrom reports whether the committed queue plus the caller's own
// staged messages leave room for n more. The result depends only on
// committed state and on what the caller itself already sent this cycle,
// so it is deterministic regardless of partition interleaving.
func (p *Port[T]) CanAcceptFrom(key uint64, n int) bool {
	if p.cap <= 0 {
		return true
	}
	room := p.cap - int(p.visLen.Load()) - n
	if room < 0 {
		return false
	}
	own := 0
	for i := range p.staged {
		if p.staged[i].key == key {
			own++
		}
	}
	return own <= room
}

// Commit publishes staged messages in deterministic order. The engine calls
// this between the tick and commit phases; now is the cycle being committed,
// so everything published becomes visible at now+1. It is a cheap no-op
// when nothing was staged this cycle. Commit panics on a staged envelope
// due after now+1: that means a port with MinLatency > 1 was registered on
// the per-cycle commit path instead of as a cross-shard port, which would
// deliver it early.
func (p *Port[T]) Commit(now uint64) {
	if !p.dirty {
		return
	}
	p.dirty = false
	batch := p.staged
	// Stable insertion sort by (key, seq). Staged batches are tiny (usually
	// 1-2 envelopes) and often already ordered, and unlike sort.SliceStable
	// this allocates nothing.
	for i := 1; i < len(batch); i++ {
		for j := i; j > 0 && envLess(&batch[j], &batch[j-1]); j-- {
			batch[j], batch[j-1] = batch[j-1], batch[j]
		}
	}
	for i := range batch {
		if batch[i].at > now+1 {
			panic("sim: per-cycle commit of a message with MinLatency > 1 (register the port with AddCrossPortFor)")
		}
		p.queue = append(p.queue, batch[i].msg)
	}
	clearEnvelopes(batch)
	p.staged = batch[:0]
	p.visLen.Store(int32(len(p.queue)))
	if cb := p.onDeliver; cb != nil {
		cb(now + 1)
	}
}

// Seal moves the staged envelopes into the future list, ordered by
// (at, key, seq). The engine calls it for dirty cross-shard ports at round
// barriers, when no producer is mid-tick; releases then happen on the exact
// cycle each timestamp dictates (ReleaseDue). Envelopes with equal at always
// come from one send cycle (the port's latency is fixed), so the (key, seq)
// order within a release batch is the same order a per-cycle commit would
// have produced — this is what keeps multi-cycle windows bit-identical.
func (p *Port[T]) Seal(uint64) {
	if !p.dirty {
		return
	}
	p.dirty = false
	batch := p.staged
	for i := 1; i < len(batch); i++ {
		for j := i; j > 0 && envAtLess(&batch[j], &batch[j-1]); j-- {
			batch[j], batch[j-1] = batch[j-1], batch[j]
		}
	}
	if len(p.future) == 0 {
		p.future = append(p.future, batch...)
	} else {
		// Merge two sorted runs. Sealed batches normally follow the pending
		// future entries, so the common case is a plain append.
		if !envAtLess(&batch[0], &p.future[len(p.future)-1]) {
			p.future = append(p.future, batch...)
		} else {
			merged := make([]envelope[T], 0, len(p.future)+len(batch))
			i, j := 0, 0
			for i < len(p.future) && j < len(batch) {
				if envAtLess(&batch[j], &p.future[i]) {
					merged = append(merged, batch[j])
					j++
				} else {
					merged = append(merged, p.future[i])
					i++
				}
			}
			merged = append(merged, p.future[i:]...)
			merged = append(merged, batch[j:]...)
			p.future = merged
		}
	}
	p.nextDue = p.future[0].at
	clearEnvelopes(batch)
	p.staged = batch[:0]
}

// ReleaseDue publishes every future envelope due at or before nextTick (the
// next cycle that will execute), firing onDeliver once if anything became
// visible. Owner-shard/barrier access only, like the queue.
func (p *Port[T]) ReleaseDue(nextTick uint64) {
	n := 0
	for n < len(p.future) && p.future[n].at <= nextTick {
		p.queue = append(p.queue, p.future[n].msg)
		n++
	}
	if n == 0 {
		return
	}
	rest := copy(p.future, p.future[n:])
	clearEnvelopes(p.future[rest:])
	p.future = p.future[:rest]
	if len(p.future) == 0 {
		p.nextDue = WakeNever
	} else {
		p.nextDue = p.future[0].at
	}
	p.visLen.Store(int32(len(p.queue)))
	if cb := p.onDeliver; cb != nil {
		cb(nextTick)
	}
}

// NextDue returns the earliest pending release cycle (WakeNever when no
// sealed envelope is waiting). Owner-shard/barrier access only.
func (p *Port[T]) NextDue() uint64 { return p.nextDue }

func envLess[T any](a, b *envelope[T]) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

func envAtLess[T any](a, b *envelope[T]) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return envLess(a, b)
}

// clearEnvelopes zeroes the reused staged slice so pointer-carrying messages
// do not keep dead objects alive across cycles.
func clearEnvelopes[T any](s []envelope[T]) {
	var zero envelope[T]
	for i := range s {
		s[i] = zero
	}
}

// Empty reports whether no committed messages are visible.
func (p *Port[T]) Empty() bool { return p.visLen.Load() == 0 }

// Len returns the number of visible (committed) messages.
func (p *Port[T]) Len() int { return int(p.visLen.Load()) }

// Peek returns the head message without removing it. Owner-only, like every
// queue accessor below (see the locking contract in the type comment).
func (p *Port[T]) Peek() (T, bool) {
	var zero T
	if len(p.queue) == 0 {
		return zero, false
	}
	return p.queue[0], true
}

// At returns the i-th visible message without removing it.
func (p *Port[T]) At(i int) (T, bool) {
	var zero T
	if i < 0 || i >= len(p.queue) {
		return zero, false
	}
	return p.queue[i], true
}

// PopAt removes and returns the i-th visible message.
func (p *Port[T]) PopAt(i int) (T, bool) {
	var zero T
	if i < 0 || i >= len(p.queue) {
		return zero, false
	}
	msg := p.queue[i]
	copy(p.queue[i:], p.queue[i+1:])
	p.queue = p.queue[:len(p.queue)-1]
	p.visLen.Store(int32(len(p.queue)))
	return msg, true
}

// Pop removes and returns the head message.
func (p *Port[T]) Pop() (T, bool) {
	var zero T
	if len(p.queue) == 0 {
		return zero, false
	}
	msg := p.queue[0]
	copy(p.queue, p.queue[1:])
	p.queue = p.queue[:len(p.queue)-1]
	p.visLen.Store(int32(len(p.queue)))
	return msg, true
}

// DrainInto appends up to max visible messages into dst and returns the
// extended slice. max <= 0 drains everything.
func (p *Port[T]) DrainInto(dst []T, max int) []T {
	n := len(p.queue)
	if max > 0 && max < n {
		n = max
	}
	dst = append(dst, p.queue[:n]...)
	copy(p.queue, p.queue[n:])
	p.queue = p.queue[:len(p.queue)-n]
	p.visLen.Store(int32(len(p.queue)))
	return dst
}
