package cpu

import (
	"smarco/internal/isa"
	"smarco/internal/noc"
)

// Sequential prefetch into a per-thread line buffer — the paper's §7 future
// work ("data penetration and prefetch from memory to SPM to further
// improve efficiency"). When a streaming thread's loads walk consecutive
// DRAM addresses, the core fetches the next 64-byte line ahead of use;
// loads that hit the buffer complete at scratchpad-like latency instead of
// paying a memory round trip.
//
// Correctness: the buffer is private per thread and is invalidated by the
// thread's own overlapping stores. Cross-thread stores to a prefetched
// line are not observed (no coherence), matching the simulator's general
// position that unsynchronized sharing has no ordering guarantees; the
// workloads' streamed regions are private by construction.

// prefetchState is embedded in each thread.
type prefetchState struct {
	// Detected stream.
	lastAddr uint64
	lastSize int
	streak   int
	// Line buffer.
	valid    bool
	lineAddr uint64
	data     [64]byte
	// In-flight prefetch.
	pending     bool
	pendingAddr uint64
}

// prefetchStreakTrigger is how many sequential accesses arm the prefetcher.
const prefetchStreakTrigger = 3

// prefetchLookup serves a load from the thread's line buffer if possible;
// a hit stalls the lane like an SPM access.
func (c *Core) prefetchLookup(th *thread, in isa.Inst, addr uint64, size int) bool {
	pf := &th.pf
	if !pf.valid || addr < pf.lineAddr || addr+uint64(size) > pf.lineAddr+64 {
		return false
	}
	var raw uint64
	off := addr - pf.lineAddr
	for i := 0; i < size; i++ {
		raw |= uint64(pf.data[off+uint64(i)]) << (8 * uint(i))
	}
	th.regs.Set(in.Rd, isa.LoadResult(in.Op, raw))
	th.pc++
	c.Stats.PrefetchHits.Inc()
	return true
}

// prefetchObserve updates stream detection after a DRAM load issues and
// launches the next-line prefetch when a stream is established.
func (c *Core) prefetchObserve(now uint64, th *thread, addr uint64, size int) {
	pf := &th.pf
	if addr == pf.lastAddr+uint64(pf.lastSize) {
		pf.streak++
	} else {
		pf.streak = 0
	}
	pf.lastAddr, pf.lastSize = addr, size
	if pf.streak < prefetchStreakTrigger || pf.pending {
		return
	}
	next := (addr &^ 63) + 64
	if pf.valid && pf.lineAddr == next {
		return
	}
	id := c.nextReqID()
	pf.pending = true
	pf.pendingAddr = next
	c.pendPrefetch[id] = th
	c.Stats.PrefetchIssued.Inc()
	req := noc.MemReq{ID: id, Addr: next, Size: 64, Thread: th.slot}
	c.send(noc.NewMemReqPacket(id, c.Node, c.mcFor(next), req, false, false, now))
}

// prefetchFill completes an in-flight prefetch.
func (c *Core) prefetchFill(th *thread, resp noc.MemResp) {
	pf := &th.pf
	pf.pending = false
	if len(resp.Blob) < 64 {
		return
	}
	pf.valid = true
	pf.lineAddr = resp.Addr
	copy(pf.data[:], resp.Blob)
}

// prefetchInvalidate drops the buffer when the thread writes into it.
func (th *thread) prefetchInvalidate(addr uint64, size int) {
	pf := &th.pf
	if pf.valid && addr < pf.lineAddr+64 && pf.lineAddr < addr+uint64(size) {
		pf.valid = false
	}
}
