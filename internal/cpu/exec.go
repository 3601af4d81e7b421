package cpu

import (
	"fmt"

	"smarco/internal/isa"
	"smarco/internal/noc"
	"smarco/internal/spm"
)

// tickLane issues at most one instruction on a lane that is not stalled and
// has Ready threads (ready holds the lane's bits of the ready mask). It runs
// the current thread, or switches to the friend thread when the current one
// blocked — the in-pair mechanism — and holds the instruction's exec stall.
func (c *Core) tickLane(now uint64, l *lane, ready uint64) {
	if ready&(1<<uint(l.current)) == 0 {
		// In-pair switch: the friend thread starts immediately when the
		// running thread waits on memory (§3.1.1), the thread after the
		// current one first (fair pairing).
		l.current = nextReady(ready, l.current)
	}
	l.stall = c.issue(now, c.threads[l.base+l.current])
}

// issue executes one instruction for th and returns the exec-latency stall
// it leaves on the lane, in cycles.
func (c *Core) issue(now uint64, th *thread) int {
	prog := th.work.Prog
	if th.pc < 0 || th.pc >= prog.Len() {
		panic(fmt.Sprintf("cpu: core%d slot%d pc %d out of range for %q", c.ID, th.slot, th.pc, prog.Name))
	}
	// Instruction fetch.
	if !c.fetch(now, th) {
		return 0
	}
	in := prog.Insts[th.pc]
	stall := 0
	switch {
	case in.Op == isa.HALT:
		if c.stageOut(now, th) {
			c.setState(th, TDraining)
		} else {
			c.setState(th, THalted)
		}
	case in.Op.IsBranch():
		// Static BTFN prediction (backward taken, forward not taken), as
		// on the ARM11-class pipeline the TCG extends: only mispredicts
		// pay the pipeline-refill penalty.
		next, taken := isa.ExecBranch(in, th.pc, &th.regs)
		predictTaken := in.Op == isa.JAL || in.Op == isa.JALR || int(in.Imm) <= th.pc
		th.pc = next
		if taken != predictTaken {
			stall = c.cfg.BranchPenalty
		}
	case in.Op.IsLoad():
		stall = c.execLoad(now, th, in)
		if th.state == TWaitStore {
			return 0 // blocked by the store buffer: pc unchanged, the retry counts
		}
		c.Stats.MemOps.Inc()
		c.Stats.Loads.Inc()
	case in.Op.IsStore():
		stall = c.execStore(now, th, in)
		if th.state == TWaitStore {
			return 0 // blocked by the store buffer: pc unchanged, the retry counts
		}
		c.Stats.MemOps.Inc()
		c.Stats.Stores.Inc()
	default:
		isa.ExecALU(in, &th.regs)
		stall = in.Op.Latency() - 1
		th.pc++
	}
	c.Stats.Issued.Inc()
	return stall
}

// fetch models instruction supply: SPM-resident shared segments always hit;
// otherwise the I-cache is consulted and misses go to memory.
func (c *Core) fetch(now uint64, th *thread) bool {
	st := th.iseg
	if st != nil && st.resident {
		return true
	}
	base := th.work.CodeBase
	if c.cfg.SharedISeg {
		// Segment still streaming into SPM: wait.
		c.setState(th, TWaitIF)
		if st != nil {
			c.pumpISeg(now, base, st)
		}
		return false
	}
	addr := base + uint64(th.pc)*4
	if c.icache.Access(addr, false) {
		return true
	}
	c.Stats.IFMisses.Inc()
	id := c.nextReqID()
	c.pendIFetch[id] = addr // value unused for plain fetches; key presence matters
	c.setState(th, TWaitIF)
	th.waitID = id
	lineAddr := c.icache.LineAddr(addr)
	req := noc.MemReq{ID: id, Addr: lineAddr, Size: 64, IFetch: true, Thread: th.slot}
	c.send(noc.NewMemReqPacket(id, c.Node, c.mcFor(lineAddr), req, false, th.work.Priority, now))
	return false
}

// execLoad routes a load by address: local SPM, remote SPM, or DRAM
// (cached or direct), and returns its exec stall. Loads first consult the
// thread's store buffer; a partial overlap parks the thread in TWaitStore
// with pc unchanged, to re-execute once the stores drain.
func (c *Core) execLoad(now uint64, th *thread, in isa.Inst) int {
	addr := isa.EffAddr(in, &th.regs)
	size := in.Op.AccessSize()

	// Store-buffer disambiguation: forward a fully covering posted store,
	// stall on partial overlap until the stores drain.
	if hit, data, conflict := th.searchStores(addr, size); hit {
		c.Stats.StoreFwd.Inc()
		th.regs.Set(in.Rd, isa.LoadResult(in.Op, data))
		th.pc++
		return 0
	} else if conflict {
		c.Stats.StoreStall.Inc()
		c.setState(th, TWaitStore)
		return 0
	}

	if spm.IsSPMAddr(addr, c.cfg.MemCores) {
		c.Stats.SPMAccesses.Inc()
		owner := spm.CoreOf(addr)
		if owner == c.ID {
			raw := c.SPM.Read(spm.OffsetOf(addr), size)
			th.regs.Set(in.Rd, isa.LoadResult(in.Op, raw))
			th.pc++
			return c.cfg.SPMLatency - 1
		}
		// Remote SPM access travels the NoC (§3.5.1).
		c.Stats.RemoteSPM.Inc()
		c.sendLoad(now, th, in, addr, size, noc.CoreNode(owner))
		return 0
	}

	if c.cfg.Cached {
		return c.cachedLoad(now, th, in, addr, size)
	}
	if c.cfg.Prefetch {
		if c.prefetchLookup(th, in, addr, size) {
			c.prefetchObserve(now, th, addr, size)
			return c.cfg.SPMLatency - 1
		}
		defer c.prefetchObserve(now, th, addr, size)
	}
	// Direct path: the access granularity itself goes on the wire, to be
	// collected by the sub-ring MACT.
	c.sendLoad(now, th, in, addr, size, c.mcFor(addr))
	return 0
}

// sendLoad issues a blocking load request and parks the thread.
func (c *Core) sendLoad(now uint64, th *thread, in isa.Inst, addr uint64, size int, dst noc.NodeID) {
	id := c.nextReqID()
	c.pendLoad[id] = th
	c.loadStart[id] = now
	c.setState(th, TWaitMem)
	th.waitID = id
	th.loadInst = in
	req := noc.MemReq{ID: id, Addr: addr, Size: size, Thread: th.slot}
	c.send(noc.NewMemReqPacket(id, c.Node, dst, req, false, th.work.Priority, now))
}

// cachedLoad is the D-cache ablation path: functional data comes from the
// shared store immediately; timing follows hit/miss. It returns the exec
// stall.
func (c *Core) cachedLoad(now uint64, th *thread, in isa.Inst, addr uint64, size int) int {
	raw := c.store.Read(addr, size)
	th.regs.Set(in.Rd, isa.LoadResult(in.Op, raw))
	if c.dcache.Access(addr, false) {
		th.pc++
		return c.dcache.HitLatency() - 1
	}
	c.Stats.DMisses.Inc()
	id := c.nextReqID()
	c.pendDFill[id] = th
	c.loadStart[id] = now
	c.setState(th, TWaitMem)
	th.waitID = id
	th.pc++ // result already written; the fill only charges time
	lineAddr := c.dcache.LineAddr(addr)
	req := noc.MemReq{ID: id, Addr: lineAddr, Size: 64, Thread: th.slot}
	c.send(noc.NewMemReqPacket(id, c.Node, c.mcFor(lineAddr), req, false, th.work.Priority, now))
	return 0
}

// execStore routes a store by address, posting DRAM/remote writes, and
// returns its exec stall. A full store buffer parks the thread in
// TWaitStore with pc unchanged (see postStore).
func (c *Core) execStore(now uint64, th *thread, in isa.Inst) int {
	addr := isa.EffAddr(in, &th.regs)
	size := in.Op.AccessSize()
	data := isa.StoreValue(in, &th.regs)

	if spm.IsSPMAddr(addr, c.cfg.MemCores) {
		c.Stats.SPMAccesses.Inc()
		owner := spm.CoreOf(addr)
		if owner == c.ID {
			off := spm.OffsetOf(addr)
			c.SPM.Write(off, size, data)
			th.pc++
			c.dma.maybeKick(now)
			return c.cfg.SPMLatency - 1
		}
		c.Stats.RemoteSPM.Inc()
		c.postStore(now, th, addr, size, data, noc.CoreNode(owner))
		return 0
	}

	if c.cfg.Cached {
		c.store.Write(addr, size, data)
		if c.dcache.Access(addr, true) {
			th.pc++
			return c.dcache.HitLatency() - 1
		}
		c.Stats.DMisses.Inc()
		id := c.nextReqID()
		c.pendDFill[id] = th
		c.setState(th, TWaitMem)
		th.waitID = id
		th.pc++
		lineAddr := c.dcache.LineAddr(addr)
		req := noc.MemReq{ID: id, Addr: lineAddr, Size: 64, Thread: th.slot}
		c.send(noc.NewMemReqPacket(id, c.Node, c.mcFor(lineAddr), req, false, th.work.Priority, now))
		return 0
	}
	c.postStore(now, th, addr, size, data, c.mcFor(addr))
	return 0
}

// postStore sends a posted write, tracked in the store buffer until acked.
func (c *Core) postStore(now uint64, th *thread, addr uint64, size int, data uint64, dst noc.NodeID) {
	th.prefetchInvalidate(addr, size)
	if len(th.stores) >= c.cfg.StoreCredits {
		c.Stats.StoreStall.Inc()
		c.setState(th, TWaitStore)
		return // re-execute once credits free
	}
	id := c.nextReqID()
	th.stores = append(th.stores, storeEntry{id: id, addr: addr, size: size, data: data})
	c.pendStore[id] = th
	req := noc.MemReq{ID: id, Addr: addr, Size: size, Data: data, Thread: th.slot}
	c.send(noc.NewMemReqPacket(id, c.Node, dst, req, true, th.work.Priority, now))
	th.pc++
}

// searchStores checks the thread's posted-store buffer for addr/size.
// Returns (hit, data) when one entry fully covers the access, or
// conflict=true when there is partial overlap requiring a drain.
func (th *thread) searchStores(addr uint64, size int) (hit bool, data uint64, conflict bool) {
	// Scan newest-first so the latest store wins.
	for i := len(th.stores) - 1; i >= 0; i-- {
		s := th.stores[i]
		if addr >= s.addr && addr+uint64(size) <= s.addr+uint64(s.size) {
			shift := 8 * (addr - s.addr)
			v := s.data >> shift
			// Mask to the access size: LoadResult expects a value already
			// truncated to size bytes, as DRAM replies are.
			if size < 8 {
				v &= 1<<(8*uint(size)) - 1
			}
			return true, v, false
		}
		if addr < s.addr+uint64(s.size) && s.addr < addr+uint64(size) {
			return false, 0, true
		}
	}
	return false, 0, false
}

// retireStore removes an acked store from its thread's buffer and wakes a
// thread blocked on credits or a fence.
func (c *Core) retireStore(th *thread, id uint64) {
	for i, s := range th.stores {
		if s.id == id {
			th.stores = append(th.stores[:i], th.stores[i+1:]...)
			break
		}
	}
	if th.state == TWaitStore {
		c.setState(th, TReady)
	}
}
