// Package cpu models SmarCo's Thread Core Group (TCG, §3.1): a 4-wide
// in-order core organised as four hardware lanes, each hosting a pair of
// threads (8 living, 4 running). When a running thread misses in SPM or
// D-cache its friend thread starts immediately — the in-pair interleaving
// that hides memory latency for the similarly-behaving threads of HTC
// applications (§3.1.1). The core also implements the shared-instruction-
// segment prefetch (§3.1.2), a per-thread store buffer with forwarding, and
// the SPM DMA engine (§3.5.1).
package cpu

import (
	"fmt"
	"math/bits"

	"smarco/internal/cache"
	"smarco/internal/fault"
	"smarco/internal/isa"
	"smarco/internal/mem"
	"smarco/internal/noc"
	"smarco/internal/sim"
	"smarco/internal/spm"
	"smarco/internal/stats"
)

// Config parameterizes a TCG core.
type Config struct {
	// Lanes is the number of issue lanes (4 in the paper: 4-wide issue).
	Lanes int
	// ThreadsPerLane is the in-pair depth (2 in the paper: 8 threads
	// living, 4 running). 1 disables in-pair interleaving.
	ThreadsPerLane int
	// BranchPenalty is the taken-branch bubble in cycles (8-stage
	// in-order pipeline).
	BranchPenalty int
	// StoreCredits bounds posted writes in flight per thread.
	StoreCredits int
	// ICache and DCache geometry.
	ICache cache.Config
	DCache cache.Config
	// Cached selects D-cache data access (ablation mode). The default
	// (false) is SmarCo's direct small-granularity access path feeding
	// the MACT. See DESIGN.md §4.
	Cached bool
	// SharedISeg enables prefetching the whole instruction segment into
	// SPM when a task starts, after which fetches never miss (§3.1.2).
	SharedISeg bool
	// SPMLatency is the scratchpad access latency in cycles.
	SPMLatency int
	// Prefetch enables the sequential next-line prefetcher (§7 future
	// work: "data penetration and prefetch from memory to SPM").
	Prefetch bool
	// MemCores is the total number of cores on the chip, for SPM address
	// decoding.
	MemCores int
}

// DefaultConfig is the paper's TCG configuration.
func DefaultConfig() Config {
	return Config{
		Lanes:          4,
		ThreadsPerLane: 2,
		BranchPenalty:  3,
		StoreCredits:   8,
		ICache:         cache.L1I16K(),
		DCache:         cache.L1D16K(),
		SharedISeg:     true,
		SPMLatency:     spm.HitLatency,
		MemCores:       256,
	}
}

// ThreadState tracks a hardware thread slot.
type ThreadState uint8

// Thread states. Running is implicit: the lane's current Ready thread.
// Every change of a thread's state goes through Core.setState.
const (
	TIdle      ThreadState = iota // no task assigned
	TStaging                      // dataset DMA into SPM in progress
	TReady                        // can issue
	TWaitMem                      // blocked on a load/remote access
	TWaitIF                       // blocked on instruction fetch
	TWaitStore                    // blocked on store credit / fence
	TDraining                     // halted; staged outputs writing back
	THalted                       // task finished, awaiting reap
	numThreadStates
)

// maxSlots bounds a core's thread slots: the ready mask is one word.
const maxSlots = 64

// StageRegion marks one argument's memory region for SPM staging: it is
// DMA-copied into the scratchpad before the task starts and, when Out is
// set, written back after it halts (§3.6 dataset placement).
type StageRegion struct {
	Arg   int
	Bytes int
	Out   bool
}

// Work is one task assignment for a thread slot.
type Work struct {
	TaskID   int
	Prog     *isa.Program
	Args     [8]int64
	Stage    []StageRegion
	Priority bool
	Deadline uint64
	// ReleaseCycle is when the task became eligible to run.
	ReleaseCycle uint64
	// EstCycles is the scheduler's execution-time estimate, used for
	// laxity computation (laxity = deadline - now - estimate).
	EstCycles uint64
	// CodeBase is the DRAM address where the program's code segment lives
	// (for instruction-fetch traffic).
	CodeBase uint64
}

// Completion reports a finished task to the scheduler.
type Completion struct {
	Core   int
	Slot   int
	TaskID int
	Cycle  uint64
}

type storeEntry struct {
	id   uint64
	addr uint64
	size int
	data uint64
}

type thread struct {
	slot  int
	state ThreadState
	regs  isa.Regs
	pc    int
	work  Work
	// iseg is the shared instruction segment of work.CodeBase (nil unless
	// SharedISeg), so a fetch needs no map lookup.
	iseg     *isegState
	waitID   uint64
	loadInst isa.Inst // in-flight load for writeback
	stores   []storeEntry
	assigned uint64 // cycle the task was installed
	// Staging: remaining DMA transfers before start / after halt, and the
	// original DRAM addresses of staged regions for writeback.
	stagePend int
	stageOrig [8]int64
	// pf is the sequential prefetcher's per-thread state.
	pf prefetchState
	// undo collects the pre-images of this task's acked memory writes while
	// RAS is armed, for rollback if the core is killed (see ras.go).
	undo []undoEntry
}

// lane is one issue lane: threads base to base+ThreadsPerLane-1, of which
// current runs.
type lane struct {
	base    int
	current int
	// stall is the exec-latency stall of the lane's current thread, in
	// cycles still to wait. Only a Ready thread stalls, and a lane switches
	// threads only when its current one is not Ready, so the stall belongs
	// to the lane: a checkpoint encodes it as the current thread's busy
	// count.
	stall int
}

// isegState tracks shared-instruction-segment prefetch per code base.
type isegState struct {
	resident   bool
	inFlight   int
	nextOffset int
	totalBytes int
}

// Stats aggregates one core's counters.
type Stats struct {
	Cycles         stats.Counter
	Issued         stats.Counter
	StagedTasks    stats.Counter
	StageBytes     stats.Counter
	MemOps         stats.Counter
	Loads          stats.Counter
	Stores         stats.Counter
	SPMAccesses    stats.Counter
	RemoteSPM      stats.Counter
	IFMisses       stats.Counter
	DMisses        stats.Counter // D-cache misses (cached mode)
	LaneIdle       stats.Counter // lane-cycles with no ready thread
	LaneBusy       stats.Counter // lane-cycles stalled on exec latency
	StoreFwd       stats.Counter // loads forwarded from the store buffer
	StoreStall     stats.Counter // loads/stores blocked by the store buffer (events, not cycles)
	PrefetchIssued stats.Counter
	PrefetchHits   stats.Counter
	// LoadLat and TaskLat are bounded streaming histograms: a week-long
	// run observes billions of latencies without growing memory.
	LoadLat stats.StreamHist
	TaskLat stats.StreamHist // release-to-completion latency
}

// IPC returns issued instructions per cycle.
func (s *Stats) IPC() float64 { return stats.Ratio(s.Issued.Value(), s.Cycles.Value()) }

// Core is one TCG core.
type Core struct {
	ID   int
	Node noc.NodeID
	cfg  Config
	key  uint64

	inject *sim.Port[*noc.Packet] // toward the sub-ring router
	eject  *sim.Port[*noc.Packet] // from the sub-ring router

	workPort *sim.Port[Work]
	donePort *sim.Port[Completion] // owned by the sub-scheduler

	SPM    *spm.SPM
	icache *cache.Cache
	dcache *cache.Cache
	store  *mem.Sparse // functional DRAM image (cached mode + SPM staging)

	lanes    []lane
	threads  []*thread
	freeSlot []int
	// ready has bit s set exactly when slot s is TReady, and halted counts
	// THalted threads; setState keeps both. Lane l's Ready threads are
	// the laneBits bits of ready from bit l*laneBits on.
	ready    uint64
	laneBits uint
	halted   int

	reqSeq       uint64
	sendSeq      uint64
	pendLoad     map[uint64]*thread
	pendStore    map[uint64]*thread // store ack -> owner (for credit/fence)
	pendIFetch   map[uint64]uint64  // reqID -> code base
	pendDFill    map[uint64]*thread // cached-mode line fills
	pendPrefetch map[uint64]*thread
	loadStart    map[uint64]uint64 // reqID -> issue cycle (latency stats)
	isegs        map[uint64]*isegState
	mcFor        func(addr uint64) noc.NodeID
	dma          dmaEngine
	outQ         []*noc.Packet // staged packets when inject backpressures

	// RAS (see ras.go): fault injector, the sub-scheduler's re-dispatch
	// port, and the hard-failure state machine.
	ras        *fault.Injector
	orphanPort *sim.Port[Work]
	dead       bool
	dying      *dyingState
	handled    uint64      // packets/DMA chunks processed (progress reporting)
	wake       func()      // engine wake callback (see SetWake)
	trace      sim.TraceFn // nil unless a trace is wired in

	Stats Stats
}

// SetTracer installs a domain-event tracer; task installs and completions
// emit "task" events.
func (c *Core) SetTracer(fn sim.TraceFn) { c.trace = fn }

// New builds a core. inject/eject are the ports from attaching the core to
// its sub-ring; mcFor maps a DRAM address to its memory controller node.
func New(id int, cfg Config, store *mem.Sparse, inject, eject *sim.Port[*noc.Packet],
	donePort *sim.Port[Completion], mcFor func(addr uint64) noc.NodeID, key uint64) (*Core, error) {
	if cfg.Lanes <= 0 || cfg.ThreadsPerLane <= 0 {
		return nil, fmt.Errorf("cpu: core %d has invalid lane configuration %dx%d",
			id, cfg.Lanes, cfg.ThreadsPerLane)
	}
	if cfg.ThreadsPerLane > maxSlots/cfg.Lanes {
		return nil, fmt.Errorf("cpu: core %d has %dx%d thread slots, more than %d",
			id, cfg.Lanes, cfg.ThreadsPerLane, maxSlots)
	}
	icache, err := cache.New(cfg.ICache)
	if err != nil {
		return nil, fmt.Errorf("cpu: core %d: %w", id, err)
	}
	c := &Core{
		ID:           id,
		Node:         noc.CoreNode(id),
		cfg:          cfg,
		key:          key,
		inject:       inject,
		eject:        eject,
		workPort:     sim.NewPort[Work](0),
		donePort:     donePort,
		SPM:          spm.New(id),
		icache:       icache,
		store:        store,
		pendLoad:     map[uint64]*thread{},
		pendStore:    map[uint64]*thread{},
		pendIFetch:   map[uint64]uint64{},
		pendDFill:    map[uint64]*thread{},
		pendPrefetch: map[uint64]*thread{},
		loadStart:    map[uint64]uint64{},
		isegs:        map[uint64]*isegState{},
		mcFor:        mcFor,
	}
	if cfg.Cached {
		c.dcache, err = cache.New(cfg.DCache)
		if err != nil {
			return nil, fmt.Errorf("cpu: core %d: %w", id, err)
		}
	}
	c.lanes = make([]lane, cfg.Lanes)
	c.laneBits = uint(cfg.ThreadsPerLane)
	for l := range c.lanes {
		c.lanes[l].base = l * cfg.ThreadsPerLane
		for t := 0; t < cfg.ThreadsPerLane; t++ {
			c.threads = append(c.threads, &thread{slot: l*cfg.ThreadsPerLane + t, state: TIdle})
		}
	}
	// Hand out slots lane-major: tasks spread across lanes before pairing
	// up, so k <= Lanes threads run fully in parallel and only beyond that
	// do friend threads share a lane (Fig. 17's two regions).
	for t := 0; t < cfg.ThreadsPerLane; t++ {
		for l := 0; l < cfg.Lanes; l++ {
			c.freeSlot = append(c.freeSlot, l*cfg.ThreadsPerLane+t)
		}
	}
	c.dma.core = c
	return c, nil
}

// MustNew is New for statically known-good configurations.
func MustNew(id int, cfg Config, store *mem.Sparse, inject, eject *sim.Port[*noc.Packet],
	donePort *sim.Port[Completion], mcFor func(addr uint64) noc.NodeID, key uint64) *Core {
	c, err := New(id, cfg, store, inject, eject, donePort, mcFor, key)
	if err != nil {
		panic(err)
	}
	return c
}

// WorkPort returns the port the scheduler uses to assign tasks.
func (c *Core) WorkPort() *sim.Port[Work] { return c.workPort }

// Ports returns the ports owned by the core for engine registration.
func (c *Core) Ports() []interface{ Commit(uint64) } {
	return []interface{ Commit(uint64) }{c.workPort}
}

// ThreadSlots returns the number of hardware thread contexts.
func (c *Core) ThreadSlots() int { return c.cfg.Lanes * c.cfg.ThreadsPerLane }

// FreeSlots returns how many thread contexts are unassigned.
func (c *Core) FreeSlots() int { return len(c.freeSlot) }

// Idle reports whether every thread slot is idle and no traffic is pending.
func (c *Core) Idle() bool {
	for _, th := range c.threads {
		if th.state != TIdle {
			return false
		}
	}
	return len(c.outQ) == 0 && len(c.pendLoad) == 0 && len(c.pendStore) == 0 && c.dma.idle()
}

// Commit implements sim.Ticker.
func (c *Core) Commit(uint64) {}

// SetWake implements sim.Wakeable: the engine installs the callback that
// re-arms a quiescent core. Kill uses it — a hard failure arrives from the
// scheduler outside the port system, so a sleeping victim must be woken
// explicitly to run its drain/rollback state machine.
func (c *Core) SetWake(f func()) { c.wake = f }

// Quiescent implements sim.Quiescer. A live core is idle when no thread can
// issue, the DMA engine cannot start or issue a chunk, and all its input
// ports and the backpressured output queue are empty; every blocked thread
// is then waiting on a NoC delivery (load/store/ifetch response, DMA chunk)
// that re-arms the core via its eject or work port. A dead core is idle
// once its output queue drained: the dying state machine and remote-SPM
// service advance only on eject deliveries.
func (c *Core) Quiescent(now uint64) (bool, uint64) {
	if len(c.outQ) > 0 || !c.eject.Empty() || !c.workPort.Empty() {
		return false, 0
	}
	if c.dead {
		return true, sim.WakeNever
	}
	if c.ready != 0 {
		return false, 0
	}
	if c.halted > 0 {
		for _, th := range c.threads {
			// Reaped this very tick unless posted writes are pending —
			// and those retire on eject deliveries.
			if th.state == THalted && len(th.stores) == 0 {
				return false, 0
			}
		}
	}
	if !c.dma.sleepable() {
		return false, 0
	}
	return true, sim.WakeNever
}

// CatchUp implements sim.CatchUpper: pad the cycle counters of a core that
// is asleep when metrics are read. Dead cores stop counting cycles, as in
// the always-ticked engine.
func (c *Core) CatchUp(now uint64) {
	if !c.dead {
		c.padIdleCycles(now)
	}
}

// padIdleCycles accounts cycles the engine skipped while the core was
// quiescent: they were by definition all-lanes-idle, so padding Cycles and
// LaneIdle keeps IPC and idle ratios identical to a never-skipped run.
func (c *Core) padIdleCycles(now uint64) {
	if v := c.Stats.Cycles.Value(); v < now {
		d := now - v
		c.Stats.Cycles.Add(d)
		c.Stats.LaneIdle.Add(d * uint64(len(c.lanes)))
	}
}

// Tick advances the core one cycle.
func (c *Core) Tick(now uint64) {
	if c.dead {
		c.tickDead(now)
		return
	}
	c.padIdleCycles(now)
	c.Stats.Cycles.Inc()
	c.drainOutQ()
	c.acceptWork(now)
	c.handlePackets(now)
	c.dma.tick(now)
	// Only a lane with a Ready thread is visited: one without idles, and
	// cannot be stalled, since only its current Ready thread stalls. A
	// visited lane counts its stall down or issues.
	busy, idle := uint64(0), uint64(len(c.lanes))
	ready, mask := c.ready, uint64(1)<<c.laneBits-1
	for i := 0; ready != 0; i++ {
		bits := ready & mask
		ready >>= c.laneBits
		if bits == 0 {
			continue
		}
		idle--
		l := &c.lanes[i]
		if l.stall > 0 {
			l.stall--
			busy++
			continue
		}
		c.tickLane(now, l, bits)
	}
	c.Stats.LaneBusy.Add(busy)
	c.Stats.LaneIdle.Add(idle)
	if c.halted > 0 {
		c.reapHalted(now)
	}
}

// setState moves th to state s. Every thread-state change goes through it,
// so the ready mask and the halted count always match the threads: a
// slot's ready bit is set exactly when it is TReady.
func (c *Core) setState(th *thread, s ThreadState) {
	bit := uint64(1) << uint(th.slot)
	if s == TReady {
		c.ready |= bit
	} else {
		c.ready &^= bit
	}
	if th.state == THalted {
		c.halted--
	}
	if s == THalted {
		c.halted++
	}
	th.state = s
}

// nextReady returns the lane index of the first Ready thread after cur,
// wrapping around, given the lane's nonzero ready bits.
func nextReady(ready uint64, cur int) int {
	if after := ready >> uint(cur+1) << uint(cur+1); after != 0 {
		return bits.TrailingZeros64(after)
	}
	return bits.TrailingZeros64(ready)
}

// send stages a packet toward the sub-ring, buffering under backpressure.
func (c *Core) send(p *noc.Packet) {
	c.outQ = append(c.outQ, p)
	c.drainOutQ()
}

func (c *Core) drainOutQ() {
	for len(c.outQ) > 0 && c.inject.CanAcceptFrom(c.key, 1) {
		c.sendSeq++
		c.inject.Send(c.key, c.sendSeq, c.outQ[0])
		c.outQ = c.outQ[1:]
	}
}

func (c *Core) nextReqID() uint64 {
	c.reqSeq++
	return c.reqSeq
}

// acceptWork installs newly assigned tasks into free thread slots.
func (c *Core) acceptWork(now uint64) {
	for len(c.freeSlot) > 0 && !c.workPort.Empty() {
		w, _ := c.workPort.Pop()
		slot := c.freeSlot[0]
		c.freeSlot = c.freeSlot[1:]
		th := c.threads[slot]
		*th = thread{slot: slot, work: w, assigned: now} // a free slot is TIdle
		c.setState(th, TReady)
		if c.trace != nil {
			c.trace("task", fmt.Sprintf("start task=%d core=%d", w.TaskID, c.ID), now)
		}
		for i, v := range w.Args {
			th.regs.Set(uint8(10+i), v)
		}
		c.stageIn(now, th)
		th.iseg = c.prepareISeg(now, w)
	}
}

// slotSPMBytes is each thread slot's share of the SPM data space for
// staged datasets.
func (c *Core) slotSPMBytes() int {
	return spm.DataBytes / c.ThreadSlots() &^ 63
}

// stageIn starts the dataset DMA for a task with stage regions. Regions
// that do not fit the slot's SPM share leave the task streaming from DRAM.
func (c *Core) stageIn(now uint64, th *thread) {
	if len(th.work.Stage) == 0 {
		return
	}
	total := 0
	for _, r := range th.work.Stage {
		total += (r.Bytes + 63) &^ 63
	}
	if total > c.slotSPMBytes() {
		return // dataset exceeds the SPM share: stream (§3.6 fallback)
	}
	c.Stats.StagedTasks.Inc()
	base := uint64(th.slot * c.slotSPMBytes())
	off := base
	c.setState(th, TStaging)
	for _, r := range th.work.Stage {
		dramAddr := uint64(th.work.Args[r.Arg])
		spmAddr := spm.AddrOf(c.ID, off)
		th.stageOrig[r.Arg] = th.work.Args[r.Arg]
		th.regs.Set(uint8(10+r.Arg), int64(spmAddr))
		th.stagePend++
		c.Stats.StageBytes.Add(uint64(r.Bytes))
		c.dma.enqueue(spm.DMARequest{Src: dramAddr, Dst: spmAddr, Len: uint64(r.Bytes)}, th, doneStageIn)
		off += uint64((r.Bytes + 63) &^ 63)
	}
}

// stageOut writes staged Out regions back to DRAM after HALT. It returns
// whether any writeback was started (thread drains before completing).
func (c *Core) stageOut(now uint64, th *thread) bool {
	started := false
	for _, r := range th.work.Stage {
		if !r.Out || th.stageOrig[r.Arg] == 0 {
			continue
		}
		spmAddr := uint64(th.regs.Get(uint8(10 + r.Arg)))
		th.stagePend++
		started = true
		c.Stats.StageBytes.Add(uint64(r.Bytes))
		c.dma.enqueue(spm.DMARequest{Src: spmAddr, Dst: uint64(th.stageOrig[r.Arg]), Len: uint64(r.Bytes)}, th, doneStageOut)
	}
	return started
}

// prepareISeg starts the shared-instruction-segment prefetch for a task's
// program if it is not already resident or in flight, and returns the
// segment's state (nil unless SharedISeg).
func (c *Core) prepareISeg(now uint64, w Work) *isegState {
	if !c.cfg.SharedISeg {
		return nil
	}
	if st, ok := c.isegs[w.CodeBase]; ok {
		return st
	}
	st := &isegState{totalBytes: w.Prog.Len() * 4}
	if st.totalBytes == 0 {
		st.resident = true
	}
	c.isegs[w.CodeBase] = st
	c.pumpISeg(now, w.CodeBase, st)
	return st
}

// pumpISeg issues up to a few outstanding prefetch line reads.
func (c *Core) pumpISeg(now uint64, base uint64, st *isegState) {
	const maxOutstanding = 4
	for !st.resident && st.inFlight < maxOutstanding && st.nextOffset < st.totalBytes {
		id := c.nextReqID()
		addr := base + uint64(st.nextOffset)
		st.nextOffset += 64
		st.inFlight++
		c.pendIFetch[id] = base
		req := noc.MemReq{ID: id, Addr: addr, Size: 64, IFetch: true}
		c.send(noc.NewMemReqPacket(id, c.Node, c.mcFor(addr), req, false, false, now))
	}
}

// reapHalted reports completed tasks and frees their slots.
func (c *Core) reapHalted(now uint64) {
	for _, th := range c.threads {
		if th.state != THalted {
			continue
		}
		if len(th.stores) > 0 {
			continue // wait for posted writes to retire before reporting
		}
		comp := Completion{Core: c.ID, Slot: th.slot, TaskID: th.work.TaskID, Cycle: now}
		c.sendSeq++
		c.donePort.Send(c.key, c.sendSeq, comp)
		c.Stats.TaskLat.Observe(now - th.assigned)
		if c.trace != nil {
			c.trace("task", fmt.Sprintf("done task=%d core=%d", th.work.TaskID, c.ID), now)
		}
		c.setState(th, TIdle)
		th.undo = nil // the task is committed; its writes are permanent
		c.freeSlot = append(c.freeSlot, th.slot)
	}
}

func (c *Core) String() string { return fmt.Sprintf("core%d", c.ID) }
