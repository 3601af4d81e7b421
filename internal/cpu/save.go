// Checkpoint serialization for the TCG core. The core's state is almost
// entirely value-typed; the two pointer shapes are resolved to stable keys:
// threads are named by their slot index, and programs are named through the
// ProgResolver the chip installs on the Encoder/Decoder Context. Maps are
// saved in sorted key order so identical state encodes to identical bytes.
//
// The core saves the ports it drains (eject and workPort); its inject port
// belongs to the sub-ring router and donePort/orphanPort to the scheduler.
package cpu

import (
	"sort"

	"smarco/internal/isa"
	"smarco/internal/noc"
	"smarco/internal/sim"
	"smarco/internal/snapshot"
)

// ProgResolver translates between program pointers and the stable code-base
// keys a snapshot stores. The chip implements it with its code-segment
// layout table.
type ProgResolver interface {
	// ProgKey returns the stable key for a program known to the resolver.
	ProgKey(p *isa.Program) (uint64, bool)
	// ProgByKey returns the program for a key, or nil if unknown.
	ProgByKey(key uint64) *isa.Program
}

// SaveWork encodes one task assignment. Requires a ProgResolver in
// e.Context when the work references a program.
func SaveWork(e *snapshot.Encoder, w Work) {
	e.Int(w.TaskID)
	e.Bool(w.Prog != nil)
	if w.Prog != nil {
		r, ok := e.Context.(ProgResolver)
		if !ok {
			panic("cpu: SaveWork needs a ProgResolver in Encoder.Context")
		}
		key, ok := r.ProgKey(w.Prog)
		if !ok {
			panic("cpu: SaveWork on a program unknown to the resolver: " + w.Prog.Name)
		}
		e.U64(key)
	}
	for _, a := range w.Args {
		e.I64(a)
	}
	e.U32(uint32(len(w.Stage)))
	for _, s := range w.Stage {
		e.Int(s.Arg)
		e.Int(s.Bytes)
		e.Bool(s.Out)
	}
	e.Bool(w.Priority)
	e.U64(w.Deadline)
	e.U64(w.ReleaseCycle)
	e.U64(w.EstCycles)
	e.U64(w.CodeBase)
}

// LoadWork decodes a task assignment saved by SaveWork.
func LoadWork(d *snapshot.Decoder) Work {
	var w Work
	w.TaskID = d.Int()
	if d.Bool() {
		key := d.U64()
		r, ok := d.Context.(ProgResolver)
		if !ok {
			d.Fail("cpu: LoadWork needs a ProgResolver in Decoder.Context")
			return w
		}
		if w.Prog = r.ProgByKey(key); w.Prog == nil {
			d.Fail("cpu: snapshot references unknown program key %#x", key)
			return w
		}
	}
	for i := range w.Args {
		w.Args[i] = d.I64()
	}
	if n := int(d.U32()); n > 0 {
		w.Stage = make([]StageRegion, n)
		for i := range w.Stage {
			w.Stage[i].Arg = d.Int()
			w.Stage[i].Bytes = d.Int()
			w.Stage[i].Out = d.Bool()
		}
	}
	w.Priority = d.Bool()
	w.Deadline = d.U64()
	w.ReleaseCycle = d.U64()
	w.EstCycles = d.U64()
	w.CodeBase = d.U64()
	return w
}

// SaveCompletion / LoadCompletion encode a task-completion report (queued in
// the scheduler's done port at checkpoint time).
func SaveCompletion(e *snapshot.Encoder, c Completion) {
	e.Int(c.Core)
	e.Int(c.Slot)
	e.Int(c.TaskID)
	e.U64(c.Cycle)
}

// LoadCompletion decodes a completion saved by SaveCompletion.
func LoadCompletion(d *snapshot.Decoder) Completion {
	var c Completion
	c.Core = d.Int()
	c.Slot = d.Int()
	c.TaskID = d.Int()
	c.Cycle = d.U64()
	return c
}

func saveInst(e *snapshot.Encoder, in isa.Inst) {
	e.U32(uint32(in.Op))
	e.U8(in.Rd)
	e.U8(in.Rs1)
	e.U8(in.Rs2)
	e.I64(in.Imm)
}

func restoreInst(d *snapshot.Decoder) isa.Inst {
	var in isa.Inst
	in.Op = isa.Opcode(d.U32())
	in.Rd = d.U8()
	in.Rs1 = d.U8()
	in.Rs2 = d.U8()
	in.Imm = d.I64()
	return in
}

func saveUndo(e *snapshot.Encoder, u undoEntry) {
	e.U64(u.addr)
	e.Int(u.size)
	e.U64(u.pre)
	e.Bool(u.blob != nil)
	if u.blob != nil {
		e.Blob(u.blob)
	}
	e.U64(u.order)
}

func restoreUndo(d *snapshot.Decoder) undoEntry {
	var u undoEntry
	u.addr = d.U64()
	u.size = d.Int()
	u.pre = d.U64()
	if d.Bool() {
		u.blob = d.Blob()
	}
	u.order = d.U64()
	return u
}

func saveUndos(e *snapshot.Encoder, us []undoEntry) {
	e.U32(uint32(len(us)))
	for _, u := range us {
		saveUndo(e, u)
	}
}

func restoreUndos(d *snapshot.Decoder) []undoEntry {
	n := int(d.U32())
	if n == 0 {
		return nil
	}
	us := make([]undoEntry, 0, n)
	for i := 0; i < n; i++ {
		us = append(us, restoreUndo(d))
	}
	return us
}

// slotOf names a thread by its hardware slot (-1 for nil): c.threads is
// slot-indexed by construction in New.
func slotOf(th *thread) int {
	if th == nil {
		return -1
	}
	return th.slot
}

func (c *Core) threadAt(d *snapshot.Decoder, slot int) *thread {
	if slot == -1 {
		return nil
	}
	if slot < 0 || slot >= len(c.threads) {
		d.Fail("cpu: snapshot thread slot %d out of range [0,%d)", slot, len(c.threads))
		return nil
	}
	return c.threads[slot]
}

// saveThreadMap encodes a reqID -> thread map in sorted key order.
func saveThreadMap(e *snapshot.Encoder, m map[uint64]*thread) {
	ids := sortedKeys(m)
	e.U32(uint32(len(ids)))
	for _, id := range ids {
		e.U64(id)
		e.Int(slotOf(m[id]))
	}
}

func (c *Core) restoreThreadMap(d *snapshot.Decoder, m map[uint64]*thread) {
	for k := range m {
		delete(m, k)
	}
	n := int(d.U32())
	for i := 0; i < n; i++ {
		id := d.U64()
		m[id] = c.threadAt(d, d.Int())
	}
}

func saveU64Map(e *snapshot.Encoder, m map[uint64]uint64) {
	ids := sortedKeys(m)
	e.U32(uint32(len(ids)))
	for _, id := range ids {
		e.U64(id)
		e.U64(m[id])
	}
}

func restoreU64Map(d *snapshot.Decoder, m map[uint64]uint64) {
	for k := range m {
		delete(m, k)
	}
	n := int(d.U32())
	for i := 0; i < n; i++ {
		id := d.U64()
		m[id] = d.U64()
	}
}

func saveIDSet(e *snapshot.Encoder, m map[uint64]struct{}) {
	ids := sortedKeys(m)
	e.U32(uint32(len(ids)))
	for _, id := range ids {
		e.U64(id)
	}
}

func restoreIDSet(d *snapshot.Decoder) map[uint64]struct{} {
	n := int(d.U32())
	m := make(map[uint64]struct{}, n)
	for i := 0; i < n; i++ {
		m[d.U64()] = struct{}{}
	}
	return m
}

func sortedKeys[V any](m map[uint64]V) []uint64 {
	ks := make([]uint64, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// runs reports whether th is its lane's current thread, and returns the lane.
func (c *Core) runs(th *thread) (*lane, bool) {
	l := &c.lanes[th.slot/c.cfg.ThreadsPerLane]
	return l, l.base+l.current == th.slot
}

func (c *Core) saveThread(e *snapshot.Encoder, th *thread) {
	e.U8(uint8(th.state))
	for _, r := range th.regs {
		e.I64(r)
	}
	e.Int(th.pc)
	SaveWork(e, th.work)
	// The lane holds its current thread's exec stall; the encoding keeps it
	// as that thread's busy count.
	busy := 0
	if l, cur := c.runs(th); cur {
		busy = l.stall
	}
	e.Int(busy)
	e.U64(th.waitID)
	saveInst(e, th.loadInst)
	e.U32(uint32(len(th.stores)))
	for _, s := range th.stores {
		e.U64(s.id)
		e.U64(s.addr)
		e.Int(s.size)
		e.U64(s.data)
	}
	e.U64(th.assigned)
	e.Int(th.stagePend)
	for _, v := range th.stageOrig {
		e.I64(v)
	}
	e.U64(th.pf.lastAddr)
	e.Int(th.pf.lastSize)
	e.Int(th.pf.streak)
	e.Bool(th.pf.valid)
	e.U64(th.pf.lineAddr)
	e.Blob(th.pf.data[:])
	e.Bool(th.pf.pending)
	e.U64(th.pf.pendingAddr)
	saveUndos(e, th.undo)
}

// restoreThread decodes one thread; the lanes' current indices must be
// restored first, since a busy count becomes its lane's stall.
func (c *Core) restoreThread(d *snapshot.Decoder, th *thread) {
	s := ThreadState(d.U8())
	if s >= numThreadStates {
		d.Fail("cpu: snapshot slot %d has unknown state %d", th.slot, s)
		return
	}
	c.setState(th, s)
	for i := range th.regs {
		th.regs[i] = d.I64()
	}
	th.pc = d.Int()
	th.work = LoadWork(d)
	th.iseg = c.isegs[th.work.CodeBase] // empty unless SharedISeg
	busy := d.Int()
	switch l, cur := c.runs(th); {
	case busy != 0 && (s != TReady || !cur):
		d.Fail("cpu: snapshot stalls slot %d, which is not its lane's current Ready thread", th.slot)
		return
	case cur:
		l.stall = busy
	}
	th.waitID = d.U64()
	th.loadInst = restoreInst(d)
	n := int(d.U32())
	th.stores = nil
	for i := 0; i < n; i++ {
		var s storeEntry
		s.id = d.U64()
		s.addr = d.U64()
		s.size = d.Int()
		s.data = d.U64()
		th.stores = append(th.stores, s)
	}
	th.assigned = d.U64()
	th.stagePend = d.Int()
	for i := range th.stageOrig {
		th.stageOrig[i] = d.I64()
	}
	th.pf.lastAddr = d.U64()
	th.pf.lastSize = d.Int()
	th.pf.streak = d.Int()
	th.pf.valid = d.Bool()
	th.pf.lineAddr = d.U64()
	d.BlobInto(th.pf.data[:])
	th.pf.pending = d.Bool()
	th.pf.pendingAddr = d.U64()
	th.undo = restoreUndos(d)
}

func (d *dmaEngine) save(e *snapshot.Encoder) {
	e.U32(uint32(len(d.queue)))
	for _, x := range d.queue {
		e.U64(x.req.Src)
		e.U64(x.req.Dst)
		e.U64(x.req.Len)
		e.U8(uint8(x.done))
		e.Bool(x.fromRegs)
		e.Int(slotOf(x.owner))
	}
	e.Bool(d.active)
	e.U64(d.req.Src)
	e.U64(d.req.Dst)
	e.U64(d.req.Len)
	e.U8(uint8(d.done))
	e.Bool(d.fromRegs)
	e.Int(slotOf(d.owner))
	e.U64(d.issued)
	e.U64(d.completed)
	e.Int(d.outstanding)
	e.Bool(d.pendIDs != nil)
	ids := sortedKeys(d.pendIDs)
	e.U32(uint32(len(ids)))
	for _, id := range ids {
		ch := d.pendIDs[id]
		e.U64(id)
		e.U64(ch.srcOff)
		e.Int(ch.bytes)
		e.Bool(ch.write)
	}
}

func (d *dmaEngine) restore(dec *snapshot.Decoder, c *Core) {
	n := int(dec.U32())
	d.queue = nil
	for i := 0; i < n; i++ {
		var x dmaXfer
		x.req.Src = dec.U64()
		x.req.Dst = dec.U64()
		x.req.Len = dec.U64()
		x.done = doneKind(dec.U8())
		x.fromRegs = dec.Bool()
		x.owner = c.threadAt(dec, dec.Int())
		d.queue = append(d.queue, x)
	}
	d.active = dec.Bool()
	d.req.Src = dec.U64()
	d.req.Dst = dec.U64()
	d.req.Len = dec.U64()
	d.done = doneKind(dec.U8())
	d.fromRegs = dec.Bool()
	d.owner = c.threadAt(dec, dec.Int())
	d.issued = dec.U64()
	d.completed = dec.U64()
	d.outstanding = dec.Int()
	allocated := dec.Bool()
	d.pendIDs = nil
	if allocated {
		d.pendIDs = map[uint64]dmaChunk{}
	}
	n = int(dec.U32())
	for i := 0; i < n; i++ {
		id := dec.U64()
		var ch dmaChunk
		ch.srcOff = dec.U64()
		ch.bytes = dec.Int()
		ch.write = dec.Bool()
		d.pendIDs[id] = ch
	}
}

// SaveState implements sim.Saver.
func (c *Core) SaveState(e *snapshot.Encoder) {
	sim.SavePort(e, c.eject, noc.EncodePacket)
	sim.SavePort(e, c.workPort, SaveWork)
	e.U64(c.reqSeq)
	e.U64(c.sendSeq)
	saveThreadMap(e, c.pendLoad)
	saveThreadMap(e, c.pendStore)
	saveU64Map(e, c.pendIFetch)
	saveThreadMap(e, c.pendDFill)
	saveThreadMap(e, c.pendPrefetch)
	saveU64Map(e, c.loadStart)
	bases := sortedKeys(c.isegs)
	e.U32(uint32(len(bases)))
	for _, b := range bases {
		st := c.isegs[b]
		e.U64(b)
		e.Bool(st.resident)
		e.Int(st.inFlight)
		e.Int(st.nextOffset)
		e.Int(st.totalBytes)
	}
	e.U32(uint32(len(c.outQ)))
	for _, p := range c.outQ {
		noc.EncodePacket(e, p)
	}
	c.dma.save(e)
	c.icache.SaveState(e)
	e.Bool(c.dcache != nil)
	if c.dcache != nil {
		c.dcache.SaveState(e)
	}
	c.SPM.SaveState(e)
	e.U32(uint32(len(c.freeSlot)))
	for _, s := range c.freeSlot {
		e.Int(s)
	}
	e.U32(uint32(len(c.lanes)))
	for i := range c.lanes {
		e.Int(c.lanes[i].current)
	}
	e.U32(uint32(len(c.threads)))
	for _, th := range c.threads {
		c.saveThread(e, th)
	}
	e.Bool(c.dead)
	e.Bool(c.dying != nil)
	if dy := c.dying; dy != nil {
		e.U8(uint8(dy.phase))
		saveIDSet(e, dy.await)
		e.Bool(dy.rbAwait != nil)
		if dy.rbAwait != nil {
			saveIDSet(e, dy.rbAwait)
		}
		saveUndos(e, dy.undo)
		e.U32(uint32(len(dy.orphans)))
		for _, w := range dy.orphans {
			SaveWork(e, w)
		}
	}
	e.U64(c.handled)
	c.Stats.Cycles.Save(e)
	c.Stats.Issued.Save(e)
	c.Stats.StagedTasks.Save(e)
	c.Stats.StageBytes.Save(e)
	c.Stats.MemOps.Save(e)
	c.Stats.Loads.Save(e)
	c.Stats.Stores.Save(e)
	c.Stats.SPMAccesses.Save(e)
	c.Stats.RemoteSPM.Save(e)
	c.Stats.IFMisses.Save(e)
	c.Stats.DMisses.Save(e)
	c.Stats.LaneIdle.Save(e)
	c.Stats.LaneBusy.Save(e)
	c.Stats.StoreFwd.Save(e)
	c.Stats.StoreStall.Save(e)
	c.Stats.PrefetchIssued.Save(e)
	c.Stats.PrefetchHits.Save(e)
	c.Stats.LoadLat.Save(e)
	c.Stats.TaskLat.Save(e)
}

// RestoreState implements sim.Restorer.
func (c *Core) RestoreState(d *snapshot.Decoder) {
	sim.RestorePort(d, c.eject, noc.DecodePacket)
	sim.RestorePort(d, c.workPort, LoadWork)
	c.reqSeq = d.U64()
	c.sendSeq = d.U64()
	c.restoreThreadMap(d, c.pendLoad)
	c.restoreThreadMap(d, c.pendStore)
	restoreU64Map(d, c.pendIFetch)
	c.restoreThreadMap(d, c.pendDFill)
	c.restoreThreadMap(d, c.pendPrefetch)
	restoreU64Map(d, c.loadStart)
	for k := range c.isegs {
		delete(c.isegs, k)
	}
	n := int(d.U32())
	for i := 0; i < n; i++ {
		b := d.U64()
		st := &isegState{}
		st.resident = d.Bool()
		st.inFlight = d.Int()
		st.nextOffset = d.Int()
		st.totalBytes = d.Int()
		c.isegs[b] = st
	}
	n = int(d.U32())
	c.outQ = nil
	for i := 0; i < n; i++ {
		c.outQ = append(c.outQ, noc.DecodePacket(d))
	}
	c.dma.restore(d, c)
	c.icache.RestoreState(d)
	hasD := d.Bool()
	if hasD != (c.dcache != nil) {
		d.Fail("cpu: snapshot dcache=%v, core has dcache=%v", hasD, c.dcache != nil)
		return
	}
	if c.dcache != nil {
		c.dcache.RestoreState(d)
	}
	c.SPM.RestoreState(d)
	n = int(d.U32())
	c.freeSlot = nil
	for i := 0; i < n; i++ {
		c.freeSlot = append(c.freeSlot, d.Int())
	}
	nLanes := int(d.U32())
	if nLanes != len(c.lanes) {
		d.Fail("cpu: snapshot has %d lanes, core has %d", nLanes, len(c.lanes))
		return
	}
	for i := range c.lanes {
		cur := d.Int()
		if cur < 0 || cur >= c.cfg.ThreadsPerLane {
			d.Fail("cpu: snapshot lane %d runs thread %d of %d", i, cur, c.cfg.ThreadsPerLane)
			return
		}
		c.lanes[i].current = cur
	}
	nThreads := int(d.U32())
	if nThreads != len(c.threads) {
		d.Fail("cpu: snapshot has %d threads, core has %d", nThreads, len(c.threads))
		return
	}
	for _, th := range c.threads {
		c.restoreThread(d, th)
	}
	c.dead = d.Bool()
	c.dying = nil
	if d.Bool() {
		dy := &dyingState{}
		dy.phase = dyingPhase(d.U8())
		dy.await = restoreIDSet(d)
		if d.Bool() {
			dy.rbAwait = restoreIDSet(d)
		}
		dy.undo = restoreUndos(d)
		nOrph := int(d.U32())
		for i := 0; i < nOrph; i++ {
			dy.orphans = append(dy.orphans, LoadWork(d))
		}
		c.dying = dy
	}
	c.handled = d.U64()
	c.Stats.Cycles.Restore(d)
	c.Stats.Issued.Restore(d)
	c.Stats.StagedTasks.Restore(d)
	c.Stats.StageBytes.Restore(d)
	c.Stats.MemOps.Restore(d)
	c.Stats.Loads.Restore(d)
	c.Stats.Stores.Restore(d)
	c.Stats.SPMAccesses.Restore(d)
	c.Stats.RemoteSPM.Restore(d)
	c.Stats.IFMisses.Restore(d)
	c.Stats.DMisses.Restore(d)
	c.Stats.LaneIdle.Restore(d)
	c.Stats.LaneBusy.Restore(d)
	c.Stats.StoreFwd.Restore(d)
	c.Stats.StoreStall.Restore(d)
	c.Stats.PrefetchIssued.Restore(d)
	c.Stats.PrefetchHits.Restore(d)
	c.Stats.LoadLat.Restore(d)
	c.Stats.TaskLat.Restore(d)
}
