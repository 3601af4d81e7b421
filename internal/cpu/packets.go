package cpu

import (
	"fmt"

	"smarco/internal/isa"
	"smarco/internal/noc"
	"smarco/internal/spm"
)

// handlePackets drains the core's eject port: load/store responses,
// instruction fill responses, remote-SPM service requests, and DMA traffic.
func (c *Core) handlePackets(now uint64) {
	for {
		p, ok := c.eject.Pop()
		if !ok {
			return
		}
		c.handled++
		switch p.Kind {
		case noc.KRespRead:
			c.onReadResp(now, p)
		case noc.KRespWrite:
			c.onWriteAck(now, p)
		case noc.KReqRead, noc.KReqWrite:
			c.serveRemoteSPM(now, p)
		case noc.KDMA:
			c.dma.onChunk(now, p)
		case noc.KDMAAck:
			c.dma.onAck(now, p)
		default:
			panic(fmt.Sprintf("cpu: core%d received unexpected %v packet", c.ID, p.Kind))
		}
	}
}

func (c *Core) onReadResp(now uint64, p *noc.Packet) {
	resp := p.Payload.(noc.MemResp)

	// Instruction supply?
	if base, ok := c.pendIFetch[resp.ID]; ok {
		delete(c.pendIFetch, resp.ID)
		if c.cfg.SharedISeg {
			st := c.isegs[base]
			if st == nil {
				return
			}
			st.inFlight--
			c.pumpISeg(now, base, st)
			if st.inFlight == 0 && st.nextOffset >= st.totalBytes {
				st.resident = true
				for _, th := range c.threads {
					if th.state == TWaitIF && th.work.CodeBase == base {
						c.setState(th, TReady)
					}
				}
			}
			return
		}
		c.icache.Fill(resp.Addr, false)
		for _, th := range c.threads {
			if th.state == TWaitIF && th.waitID == resp.ID {
				c.setState(th, TReady)
			}
		}
		return
	}

	// DMA chunk read from DRAM?
	if c.dma.onReadResp(now, resp) {
		return
	}

	// Prefetch fill?
	if th, ok := c.pendPrefetch[resp.ID]; ok {
		delete(c.pendPrefetch, resp.ID)
		c.prefetchFill(th, resp)
		return
	}

	// Cached-mode line fill?
	if th, ok := c.pendDFill[resp.ID]; ok {
		delete(c.pendDFill, resp.ID)
		c.dcache.Fill(resp.Addr, false)
		c.observeLoadLat(now, resp.ID)
		if th.state == TWaitMem && th.waitID == resp.ID {
			c.setState(th, TReady)
		}
		return
	}

	// Ordinary load response.
	th, ok := c.pendLoad[resp.ID]
	if !ok {
		panic(fmt.Sprintf("cpu: core%d got read response for unknown request %d", c.ID, resp.ID))
	}
	delete(c.pendLoad, resp.ID)
	c.observeLoadLat(now, resp.ID)
	th.regs.Set(th.loadInst.Rd, isa.LoadResult(th.loadInst.Op, resp.Data))
	th.pc++
	if th.state == TWaitMem {
		c.setState(th, TReady)
	}
}

func (c *Core) observeLoadLat(now uint64, id uint64) {
	if start, ok := c.loadStart[id]; ok {
		c.Stats.LoadLat.Observe(now - start)
		delete(c.loadStart, id)
	}
}

func (c *Core) onWriteAck(now uint64, p *noc.Packet) {
	resp := p.Payload.(noc.MemResp)
	if c.dma.onWriteAck(now, resp) {
		return
	}
	if th, ok := c.pendStore[resp.ID]; ok {
		delete(c.pendStore, resp.ID)
		if c.ras != nil && resp.Order != 0 {
			th.undo = append(th.undo, undoEntry{
				addr: resp.Addr, size: resp.Size,
				pre: resp.PreImage, order: resp.Order,
			})
		}
		c.retireStore(th, resp.ID)
		return
	}
	if th, ok := c.pendDFill[resp.ID]; ok { // cached-mode store fill
		delete(c.pendDFill, resp.ID)
		if th.state == TWaitMem && th.waitID == resp.ID {
			c.setState(th, TReady)
		}
		return
	}
	panic(fmt.Sprintf("cpu: core%d got write ack for unknown request %d", c.ID, resp.ID))
}

// serveRemoteSPM answers another core's access to this core's SPM window.
func (c *Core) serveRemoteSPM(now uint64, p *noc.Packet) {
	req := p.Payload.(noc.MemReq)
	if !spm.IsSPMAddr(req.Addr, c.cfg.MemCores) || spm.CoreOf(req.Addr) != c.ID {
		panic(fmt.Sprintf("cpu: core%d asked to serve non-local address %#x", c.ID, req.Addr))
	}
	off := spm.OffsetOf(req.Addr)
	if p.Kind == noc.KReqWrite {
		if req.Blob != nil {
			c.SPM.WriteBytes(off, req.Blob[:req.Size])
		} else {
			c.SPM.Write(off, req.Size, req.Data)
		}
		c.dma.maybeKick(now)
		resp := noc.MemResp{ID: req.ID, Addr: req.Addr, Size: req.Size, Thread: req.Thread, Write: true}
		c.send(noc.NewMemRespPacket(req.ID, c.Node, p.Src, resp, p.Priority, now))
		return
	}
	resp := noc.MemResp{ID: req.ID, Addr: req.Addr, Size: req.Size, Thread: req.Thread}
	if req.Size <= 8 {
		resp.Data = c.SPM.Read(off, req.Size)
	} else {
		resp.Blob = c.SPM.ReadBytes(off, req.Size)
	}
	c.send(noc.NewMemRespPacket(req.ID, c.Node, p.Src, resp, p.Priority, now))
}

// doneKind names a DMA transfer's completion action. It is data rather than
// a callback so checkpoints can serialize pending completions (see save.go).
type doneKind uint8

const (
	doneNone     doneKind = iota // nothing beyond the fromRegs handshake
	doneStageIn                  // dataset staged in: owner TStaging -> TReady
	doneStageOut                 // results written back: owner TDraining -> THalted
)

// dmaEngine executes SPM↔DRAM and SPM↔SPM transfers in 64-byte chunks
// (§3.5.1). Transfers come from two sources sharing one queue: software
// writes to the SPM control registers, and the runtime's task staging
// (dataset placement per §3.6). Each transfer may carry a completion
// action applied to its owning thread.
type dmaEngine struct {
	core *Core

	queue       []dmaXfer
	active      bool
	req         spm.DMARequest
	done        doneKind
	fromRegs    bool
	owner       *thread // staging thread whose undo log tracks the transfer
	issued      uint64  // bytes with requests sent
	completed   uint64  // bytes confirmed
	outstanding int
	pendIDs     map[uint64]dmaChunk
}

// dmaXfer is one queued transfer.
type dmaXfer struct {
	req      spm.DMARequest
	done     doneKind
	fromRegs bool
	owner    *thread
}

type dmaChunk struct {
	srcOff uint64 // offset within the transfer
	bytes  int
	write  bool // chunk is an outbound write (its ack may carry a pre-image)
}

const dmaMaxOutstanding = 4

func (d *dmaEngine) idle() bool { return !d.active && len(d.queue) == 0 }

// sleepable reports whether tick would be a no-op until a response arrives:
// nothing queued, or the active transfer has issued everything (or hit the
// outstanding-chunk cap) and is waiting on NoC replies.
func (d *dmaEngine) sleepable() bool {
	if !d.active {
		return len(d.queue) == 0
	}
	return d.issued >= d.req.Len || d.outstanding >= dmaMaxOutstanding
}

// enqueue schedules a runtime-initiated transfer on behalf of owner.
func (d *dmaEngine) enqueue(req spm.DMARequest, owner *thread, done doneKind) {
	d.queue = append(d.queue, dmaXfer{req: req, done: done, owner: owner})
}

// maybeKick checks the SPM control registers after any write that might
// have started a transfer.
func (d *dmaEngine) maybeKick(now uint64) {
	req, kicked := d.core.SPM.TakeDMAKick()
	if !kicked {
		return
	}
	d.queue = append(d.queue, dmaXfer{req: req, fromRegs: true})
}

// start pops the next queued transfer.
func (d *dmaEngine) start(now uint64) {
	for !d.active && len(d.queue) > 0 {
		x := d.queue[0]
		d.queue = d.queue[1:]
		if x.req.Len == 0 {
			d.finish(now, x.fromRegs, x.done, x.owner)
			continue
		}
		d.active = true
		d.req = x.req
		d.done = x.done
		d.fromRegs = x.fromRegs
		d.owner = x.owner
		d.issued, d.completed, d.outstanding = 0, 0, 0
		if d.pendIDs == nil {
			d.pendIDs = map[uint64]dmaChunk{}
		}
	}
}

func (d *dmaEngine) finish(now uint64, fromRegs bool, kind doneKind, owner *thread) {
	if fromRegs {
		d.core.SPM.CompleteDMA()
	}
	switch kind {
	case doneStageIn:
		owner.stagePend--
		if owner.stagePend == 0 && owner.state == TStaging {
			d.core.setState(owner, TReady)
		}
	case doneStageOut:
		owner.stagePend--
		if owner.stagePend == 0 && owner.state == TDraining {
			d.core.setState(owner, THalted)
		}
	}
}

// tick issues up to one 64-byte chunk per cycle.
func (d *dmaEngine) tick(now uint64) {
	if !d.active {
		if len(d.queue) == 0 {
			return
		}
		d.start(now)
	}
	if !d.active || d.outstanding >= dmaMaxOutstanding || d.issued >= d.req.Len {
		return
	}
	c := d.core
	off := d.issued
	n := int(d.req.Len - off)
	if n > 64 {
		n = 64
	}
	src := d.req.Src + off
	dst := d.req.Dst + off
	id := c.nextReqID()
	cores := c.cfg.MemCores
	switch {
	case spm.IsSPMAddr(src, cores) && spm.CoreOf(src) == c.ID:
		// Local SPM -> (DRAM | remote SPM): read locally, post a write.
		blob := c.SPM.ReadBytes(spm.OffsetOf(src), n)
		var target noc.NodeID
		if spm.IsSPMAddr(dst, cores) {
			if spm.CoreOf(dst) == c.ID {
				// Local copy: immediate.
				c.SPM.WriteBytes(spm.OffsetOf(dst), blob)
				d.issued += uint64(n)
				d.completed += uint64(n)
				c.handled++
				d.finishIfDone(now)
				return
			}
			target = noc.CoreNode(spm.CoreOf(dst))
		} else {
			target = c.mcFor(dst)
		}
		req := noc.MemReq{ID: id, Addr: dst, Size: n, Blob: blob}
		d.pendIDs[id] = dmaChunk{srcOff: off, bytes: n, write: true}
		d.outstanding++
		d.issued += uint64(n)
		c.handled++
		c.send(noc.NewMemReqPacket(id, c.Node, target, req, true, false, now))

	case spm.IsSPMAddr(dst, cores) && spm.CoreOf(dst) == c.ID:
		// (DRAM | remote SPM) -> local SPM: issue a read, write on reply.
		var target noc.NodeID
		if spm.IsSPMAddr(src, cores) {
			target = noc.CoreNode(spm.CoreOf(src))
		} else {
			target = c.mcFor(src)
		}
		req := noc.MemReq{ID: id, Addr: src, Size: n}
		d.pendIDs[id] = dmaChunk{srcOff: off, bytes: n}
		d.outstanding++
		d.issued += uint64(n)
		c.handled++
		c.send(noc.NewMemReqPacket(id, c.Node, target, req, false, false, now))

	default:
		// Neither endpoint is local: unsupported; complete as a no-op.
		d.issued = d.req.Len
		d.completed = d.req.Len
		d.finishIfDone(now)
	}
}

// onReadResp consumes DMA read chunks (remote/DRAM -> local SPM).
func (d *dmaEngine) onReadResp(now uint64, resp noc.MemResp) bool {
	ch, ok := d.pendIDs[resp.ID]
	if !ok {
		return false
	}
	delete(d.pendIDs, resp.ID)
	d.outstanding--
	off := spm.OffsetOf(d.req.Dst + ch.srcOff)
	if resp.Size <= 8 {
		d.core.SPM.Write(off, resp.Size, resp.Data)
	} else {
		d.core.SPM.WriteBytes(off, resp.Blob[:resp.Size])
	}
	d.completed += uint64(ch.bytes)
	d.finishIfDone(now)
	return true
}

// onWriteAck consumes acks for DMA write chunks (local SPM -> elsewhere).
func (d *dmaEngine) onWriteAck(now uint64, resp noc.MemResp) bool {
	ch, ok := d.pendIDs[resp.ID]
	if !ok {
		return false
	}
	delete(d.pendIDs, resp.ID)
	d.outstanding--
	if d.core.ras != nil && resp.Order != 0 && d.owner != nil {
		d.owner.undo = append(d.owner.undo, undoEntry{
			addr: resp.Addr, size: resp.Size,
			pre: resp.PreImage, blob: resp.Blob, order: resp.Order,
		})
	}
	d.completed += uint64(ch.bytes)
	d.finishIfDone(now)
	return true
}

// onChunk / onAck handle the KDMA kinds used by peer-initiated transfers.
// In the current protocol all DMA traffic is carried by ordinary memory
// request/response packets, so these are unreachable; they exist to keep
// the packet switch total.
func (d *dmaEngine) onChunk(now uint64, p *noc.Packet) {
	panic("cpu: unexpected KDMA packet in request/response DMA protocol")
}

func (d *dmaEngine) onAck(now uint64, p *noc.Packet) {
	panic("cpu: unexpected KDMAAck packet in request/response DMA protocol")
}

func (d *dmaEngine) finishIfDone(now uint64) {
	if d.completed >= d.req.Len {
		d.active = false
		d.finish(now, d.fromRegs, d.done, d.owner)
		d.done = doneNone
		d.start(now)
	}
}
