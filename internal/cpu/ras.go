package cpu

import (
	"fmt"
	"sort"

	"smarco/internal/fault"
	"smarco/internal/noc"
	"smarco/internal/sim"
)

// Hard core failures (see internal/fault): a killed core's pipeline stops
// issuing, but the surrounding RAS machinery keeps the chip consistent so
// the sub-scheduler can re-dispatch the core's in-flight tasks elsewhere:
//
//  1. Drain — writes already on the wire are allowed to complete; their
//     acks carry the pre-image of the bytes they overwrote (stamped by the
//     memory controller in serve order) and are folded into the undo log.
//     Requests still queued inside the core are simply dropped.
//  2. Rollback — the undo log is replayed oldest-first per byte, restoring
//     memory to its pre-task state so the non-idempotent tasks can safely
//     re-execute from scratch on a surviving core.
//  3. Migration — the orphaned Work items are handed back to the
//     sub-scheduler over a dedicated port and re-enter the chain tables.
//
// The SPM array is modelled as surviving the failure, so remote-SPM service
// continues; rollback covers only controller-stamped (DRAM) writes, which
// is sufficient for tasks whose shared state lives in DRAM (remote-SPM
// stores carry no pre-image and are not undone).

// EnableRAS arms the core's failure machinery with the chip's injector.
func (c *Core) EnableRAS(inj *fault.Injector) { c.ras = inj }

// SetOrphanPort installs the sub-scheduler port that receives re-queued
// tasks after a kill.
func (c *Core) SetOrphanPort(p *sim.Port[Work]) { c.orphanPort = p }

// Dead reports whether the core has suffered a hard failure.
func (c *Core) Dead() bool { return c.dead }

// undoEntry is one acked write's pre-image. blob is set for bulk writes
// (DMA chunks), pre for register-width stores.
type undoEntry struct {
	addr  uint64
	size  int
	pre   uint64
	blob  []byte
	order uint64 // memory-controller serve-order stamp
}

type dyingPhase uint8

const (
	phaseDrain dyingPhase = iota
	phaseRollback
)

// dyingState tracks a killed core through drain and rollback.
type dyingState struct {
	phase   dyingPhase
	await   map[uint64]struct{} // write IDs whose acks we still need
	rbAwait map[uint64]struct{} // rollback write IDs awaiting acks
	undo    []undoEntry
	orphans []Work
}

// Kill fails the core hard at cycle now. Tasks that were assigned but not
// finished are orphaned for re-dispatch; their completed memory writes are
// scheduled for rollback once outstanding acks drain.
func (c *Core) Kill(now uint64) {
	if c.dead {
		return
	}
	// The victim may be quiescent (skipped by the engine): re-arm it so the
	// drain/rollback state machine runs, and close out its cycle counters —
	// a dead core stops counting.
	if c.wake != nil {
		c.wake()
	}
	c.padIdleCycles(now)
	c.dead = true
	d := &dyingState{await: map[uint64]struct{}{}}
	c.dying = d

	// Assignments that never reached a thread slot.
	for {
		w, ok := c.workPort.Pop()
		if !ok {
			break
		}
		d.orphans = append(d.orphans, w)
	}

	// Requests still queued for NoC injection never left the core: drop
	// them so their writes are never applied. Responses (remote-SPM
	// service) still go out — the SPM array survives the failure.
	kept := c.outQ[:0]
	for _, p := range c.outQ {
		if p.Kind == noc.KReqRead || p.Kind == noc.KReqWrite {
			if req, ok := p.Payload.(noc.MemReq); ok {
				c.forgetRequest(req.ID)
			}
			continue
		}
		kept = append(kept, p)
	}
	c.outQ = kept

	// Orphan every installed task, fold its undo log into the dying state,
	// and note the writes already on the wire — their acks carry the
	// pre-images rollback needs.
	for _, th := range c.threads {
		if th.state == TIdle {
			continue
		}
		d.orphans = append(d.orphans, th.work)
		d.undo = append(d.undo, th.undo...)
		for _, s := range th.stores {
			d.await[s.id] = struct{}{}
		}
		c.setState(th, TIdle)
		*th = thread{slot: th.slot}
	}
	for l := range c.lanes {
		c.lanes[l].stall = 0
	}
	for id, ch := range c.dma.pendIDs {
		if ch.write {
			d.await[id] = struct{}{}
		}
	}

	c.freeSlot = nil
	c.pendLoad = map[uint64]*thread{}
	c.pendStore = map[uint64]*thread{}
	c.pendIFetch = map[uint64]uint64{}
	c.pendDFill = map[uint64]*thread{}
	c.pendPrefetch = map[uint64]*thread{}
	c.loadStart = map[uint64]uint64{}
	c.isegs = map[uint64]*isegState{}
	c.dma = dmaEngine{core: c}
	c.advanceDying(now)
}

// forgetRequest erases all tracking for a request that was dropped before
// it reached the NoC.
func (c *Core) forgetRequest(id uint64) {
	if th, ok := c.pendStore[id]; ok {
		delete(c.pendStore, id)
		for i, s := range th.stores {
			if s.id == id {
				th.stores = append(th.stores[:i], th.stores[i+1:]...)
				break
			}
		}
		return
	}
	delete(c.pendLoad, id)
	delete(c.pendIFetch, id)
	delete(c.pendDFill, id)
	delete(c.pendPrefetch, id)
	delete(c.loadStart, id)
	if _, ok := c.dma.pendIDs[id]; ok {
		delete(c.dma.pendIDs, id)
		c.dma.outstanding--
	}
}

// tickDead is the failed core's cycle: drain outstanding acks, roll the
// orphaned tasks' memory effects back, release the tasks for re-dispatch,
// and keep serving remote-SPM requests.
func (c *Core) tickDead(now uint64) {
	c.drainOutQ()
	for {
		p, ok := c.eject.Pop()
		if !ok {
			break
		}
		c.handled++
		switch p.Kind {
		case noc.KReqRead, noc.KReqWrite:
			c.serveRemoteSPM(now, p)
		case noc.KRespWrite:
			d := c.dying
			if d == nil {
				break
			}
			resp := p.Payload.(noc.MemResp)
			if _, ok := d.await[resp.ID]; ok {
				delete(d.await, resp.ID)
				if resp.Order != 0 {
					d.undo = append(d.undo, undoEntry{
						addr: resp.Addr, size: resp.Size,
						pre: resp.PreImage, blob: resp.Blob, order: resp.Order,
					})
				}
			} else if d.rbAwait != nil {
				delete(d.rbAwait, resp.ID)
			}
		default:
			// Read data for a dead pipeline: discarded.
		}
	}
	c.advanceDying(now)
	c.drainOutQ()
}

// advanceDying moves the drain → rollback → release state machine.
func (c *Core) advanceDying(now uint64) {
	d := c.dying
	if d == nil {
		return
	}
	if d.phase == phaseDrain && len(d.await) == 0 {
		d.phase = phaseRollback
		c.startRollback(now, d)
	}
	if d.phase == phaseRollback && len(d.rbAwait) == 0 {
		c.releaseOrphans(d)
		c.dying = nil
	}
}

// startRollback undoes every DRAM write the orphaned tasks had already
// performed. Pre-images are deduplicated per byte by the controller's
// serve-order stamp (the oldest pre-image is the pre-task value — valid
// because all writes to a byte serialize at its one home controller), then
// coalesced into per-line blob writes, which are MACT-ineligible and so
// reach the controller without re-batching.
func (c *Core) startRollback(now uint64, d *dyingState) {
	if len(d.undo) == 0 {
		return
	}
	type byteUndo struct {
		val   byte
		order uint64
	}
	pre := map[uint64]byteUndo{}
	for _, u := range d.undo {
		for i := 0; i < u.size; i++ {
			var v byte
			if u.blob != nil {
				v = u.blob[i]
			} else {
				v = byte(u.pre >> (8 * uint(i)))
			}
			a := u.addr + uint64(i)
			if e, ok := pre[a]; !ok || u.order < e.order {
				pre[a] = byteUndo{val: v, order: u.order}
			}
		}
	}
	d.undo = nil
	addrs := make([]uint64, 0, len(pre))
	for a := range pre {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	d.rbAwait = map[uint64]struct{}{}
	for i := 0; i < len(addrs); {
		start := addrs[i]
		j := i + 1
		for j < len(addrs) && addrs[j] == addrs[j-1]+1 && addrs[j]/64 == start/64 {
			j++
		}
		blob := make([]byte, j-i)
		for k := i; k < j; k++ {
			blob[k-i] = pre[addrs[k]].val
		}
		id := c.nextReqID()
		d.rbAwait[id] = struct{}{}
		if c.ras != nil {
			c.ras.Stats.RollbackWrites.Add(1)
		}
		req := noc.MemReq{ID: id, Addr: start, Size: len(blob), Blob: blob}
		c.send(noc.NewMemReqPacket(id, c.Node, c.mcFor(start), req, true, false, now))
		i = j
	}
}

// releaseOrphans hands the drained tasks to the sub-scheduler.
func (c *Core) releaseOrphans(d *dyingState) {
	if c.orphanPort == nil {
		d.orphans = nil
		return
	}
	for _, w := range d.orphans {
		c.sendSeq++
		c.orphanPort.Send(c.key, c.sendSeq, w)
	}
	d.orphans = nil
}

// Progress implements sim.ProgressReporter: instructions issued plus
// packets and DMA chunks processed.
func (c *Core) Progress() uint64 { return c.Stats.Issued.Value() + c.handled }

// Health implements sim.HealthReporter: non-empty while the core is waiting
// on memory or draining a failure.
func (c *Core) Health() string {
	if c.dead {
		if d := c.dying; d != nil {
			return fmt.Sprintf("failed, %d drain acks and %d rollback acks outstanding",
				len(d.await), len(d.rbAwait))
		}
		if n := len(c.outQ); n > 0 {
			return fmt.Sprintf("failed, %d packets to flush", n)
		}
		return ""
	}
	waiting := 0
	for _, th := range c.threads {
		switch th.state {
		case TIdle, TReady:
		default:
			waiting++
		}
	}
	pend := len(c.pendLoad) + len(c.pendStore) + len(c.pendIFetch) + len(c.pendDFill) + len(c.pendPrefetch)
	if waiting == 0 && pend == 0 && len(c.outQ) == 0 && c.dma.idle() {
		return ""
	}
	return fmt.Sprintf("%d threads waiting, %d requests outstanding, %d packets queued",
		waiting, pend, len(c.outQ))
}
