// Checkpoint support for the simulation kernel: the Saver/Restorer
// interfaces every component implements, plus serialization of the
// engine's own scheduling state (cycle counter, quiescence, timer heaps,
// watchdog) and of port queues.
//
// Snapshots are only taken at cycle boundaries — after a Step has fully
// completed — where every port's staged list is empty and its dirty flag
// clear, so a port is fully described by its visible queue. See DESIGN.md
// §9 for the restore-determinism contract.
package sim

import "smarco/internal/snapshot"

// Saver is implemented by every component whose state must survive a
// checkpoint. SaveState appends the component's complete dynamic state to
// the encoder; configuration that is rebuilt identically by construction
// (sizes, keys, wiring) is not saved.
type Saver interface {
	SaveState(e *snapshot.Encoder)
}

// Restorer is the inverse of Saver: RestoreState consumes exactly the
// fields SaveState wrote, mutating the (already constructed) component in
// place. Errors are latched on the decoder; semantic mismatches (e.g. a
// snapshot from a differently sized chip) should be reported via
// Decoder.Fail.
type Restorer interface {
	RestoreState(d *snapshot.Decoder)
}

// State returns the generator's position in its stream.
func (r *RNG) State() uint64 { return r.state }

// SetState repositions the generator mid-stream (checkpoint restore).
func (r *RNG) SetState(s uint64) { r.state = s }

// Save serializes the generator.
func (r *RNG) Save(e *snapshot.Encoder) { e.U64(r.state) }

// Restore loads the generator.
func (r *RNG) Restore(d *snapshot.Decoder) { r.state = d.U64() }

// SavePort serializes a port's visible queue and, for cross-shard ports,
// the sealed future entries still waiting for their release cycle (legal
// state at a window barrier). It panics if the port holds staged
// (uncommitted) messages: checkpoints are only legal at window boundaries,
// where every barrier has sealed and nothing is mid-flight unstamped.
func SavePort[T any](e *snapshot.Encoder, p *Port[T], save func(*snapshot.Encoder, T)) {
	if len(p.staged) > 0 || p.dirty {
		panic("sim: SavePort on a port with staged messages (checkpoint off a cycle boundary)")
	}
	e.U32(uint32(len(p.queue)))
	for _, msg := range p.queue {
		save(e, msg)
	}
	e.U32(uint32(len(p.future)))
	for i := range p.future {
		e.U64(p.future[i].at)
		e.U64(p.future[i].key)
		e.U64(p.future[i].seq)
		save(e, p.future[i].msg)
	}
}

// RestorePort replaces a port's visible queue and pending future entries
// with decoded contents. The port keeps its identity, capacity, latency,
// and engine wiring (onDirty/onDeliver callbacks). Restoring into an
// engine running a different lookahead is sound: release cycles are
// carried by the entries themselves, and the done/watchdog grid is a pure
// function of the wiring, not of the lookahead override.
func RestorePort[T any](d *snapshot.Decoder, p *Port[T], load func(*snapshot.Decoder) T) {
	p.staged = p.staged[:0]
	p.dirty = false
	n := int(d.U32())
	p.queue = p.queue[:0]
	for i := 0; i < n; i++ {
		p.queue = append(p.queue, load(d))
	}
	p.visLen.Store(int32(len(p.queue)))
	nf := int(d.U32())
	p.future = p.future[:0]
	for i := 0; i < nf; i++ {
		at := d.U64()
		key := d.U64()
		seq := d.U64()
		p.future = append(p.future, envelope[T]{key: key, seq: seq, at: at, msg: load(d)})
	}
	if len(p.future) == 0 {
		p.nextDue = WakeNever
	} else {
		p.nextDue = p.future[0].at
	}
}

// SaveState serializes the engine's scheduling state: the cycle counter,
// each component's quiescence status, the per-shard wake-timer heaps and
// tick counters, and the progress watchdog. Component and shard counts are
// recorded and verified on restore, so a snapshot can never be applied to a
// chip with different wiring. Shards — not execution partitions — are the
// serialization unit: shard layout is a pure function of the chip
// configuration, while the shard→partition assignment depends on the host
// (GOMAXPROCS, the partition count), and snapshots must be
// machine-independent.
// Ports and component internals are saved by their owning components, not
// here.
func (e *Engine) SaveState(enc *snapshot.Encoder) {
	enc.U64(e.now)
	enc.U32(uint32(len(e.shards)))
	for _, sh := range e.shards {
		enc.U32(uint32(len(sh.comps)))
		for _, cs := range sh.comps {
			enc.Bool(cs.asleep)
			enc.Bool(cs.woken)
		}
		// The timer heap is serialized in slice order: the heap array layout
		// is part of the deterministic state (pop order depends on it only
		// through the heap invariant, but byte-identical snapshots require
		// byte-identical layout).
		enc.U32(uint32(len(sh.timers)))
		for _, te := range sh.timers {
			enc.U64(te.at)
			enc.U32(uint32(te.idx))
		}
		// Tick counters feed the load-balancer and the load report; saving
		// them keeps post-restore snapshots identical to uninterrupted runs.
		// The second word is the retired repartition-window mark, kept so
		// the format is unchanged: written as 0, read and discarded.
		enc.U64(sh.ticks)
		enc.U64(0)
	}
	enc.U64(e.lastSum)
	enc.U64(e.lastCheck)
	enc.U64(e.stuckSince)
}

// RestoreState loads the engine scheduling state saved by SaveState,
// rebuilding each shard's active list (ascending registration order, per
// the engine invariant) from the restored per-component sleep flags.
func (e *Engine) RestoreState(dec *snapshot.Decoder) {
	e.now = dec.U64()
	nShards := int(dec.U32())
	if nShards != len(e.shards) {
		dec.Fail("sim: snapshot has %d shards, engine has %d", nShards, len(e.shards))
		return
	}
	for _, sh := range e.shards {
		nComps := int(dec.U32())
		if nComps != len(sh.comps) {
			dec.Fail("sim: snapshot shard has %d components, engine has %d", nComps, len(sh.comps))
			return
		}
		sh.asleep = 0
		sh.active = sh.active[:0]
		for i, cs := range sh.comps {
			cs.asleep = dec.Bool()
			cs.woken = dec.Bool()
			if cs.asleep {
				sh.asleep++
			} else {
				sh.active = append(sh.active, int32(i))
			}
		}
		nTimers := int(dec.U32())
		sh.timers = sh.timers[:0]
		for i := 0; i < nTimers; i++ {
			at := dec.U64()
			idx := int32(dec.U32())
			if int(idx) >= len(sh.comps) {
				dec.Fail("sim: snapshot timer for component %d of %d", idx, len(sh.comps))
				return
			}
			sh.timers = append(sh.timers, timerEntry{at: at, idx: idx})
		}
		sh.ticks = dec.U64()
		dec.U64() // retired repartition-window mark
		// Transient per-step state: nothing can be dirty at a boundary.
		sh.dirtyPorts = sh.dirtyPorts[:0]
		// Rebuild the woken queue from the restored flags: a component that
		// slept with a pending wake mark must be re-queued or it would
		// never be scanned again.
		sh.wokenList = sh.wokenList[:0]
		for i, cs := range sh.comps {
			if cs.asleep && cs.woken {
				sh.wokenList = append(sh.wokenList, int32(i))
			}
		}
	}
	e.lastSum = dec.U64()
	e.lastCheck = dec.U64()
	e.stuckSince = dec.U64()
	e.dirtyCross = e.dirtyCross[:0]
}
