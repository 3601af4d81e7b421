// Package dram models SmarCo's main memory: four DDR4-2133-class memory
// controllers attached to the main ring (§3.5.3). Each controller has a
// request queue, a banked timing model with open-row tracking, and a data
// bus bandwidth budget. Functional reads and writes are applied to the
// shared backing store in service order, which defines the chip's memory
// order.
package dram

import (
	"fmt"

	"smarco/internal/fault"
	"smarco/internal/mem"
	"smarco/internal/noc"
	"smarco/internal/sim"
	"smarco/internal/stats"
)

// Config sizes a controller's timing model.
type Config struct {
	Banks            int
	RowBytes         int
	RowHitCycles     int
	RowMissCycles    int
	BusBytesPerCycle int
	// ScanWindow bounds the FR-FCFS-style search for a ready request.
	ScanWindow int
}

// DDR4 is the paper's configuration scaled to controller granularity:
// 128-bit DDR4-2133 gives ~34 GB/s per controller, ≈ 23 bytes per 1.5 GHz
// core cycle.
func DDR4() Config {
	return Config{
		Banks:            8,
		RowBytes:         2048,
		RowHitCycles:     20,
		RowMissCycles:    40,
		BusBytesPerCycle: 23,
		ScanWindow:       8,
	}
}

// Stats counts controller activity.
type Stats struct {
	Served    stats.Counter // requests completed
	Reads     stats.Counter
	Writes    stats.Counter
	Batches   stats.Counter // MACT batch requests completed
	Matches   stats.Counter // near-memory match commands completed
	BytesBus  stats.Counter // data bytes moved
	RowHits   stats.Counter
	RowMisses stats.Counter
	QueueLat  stats.StreamHist // cycles from arrival to service start (bounded memory)
}

type bank struct {
	busyUntil uint64
	openRow   uint64
	hasRow    bool
}

type queued struct {
	pkt *noc.Packet
	// addr caches addrOf(pkt): the FR-FCFS scan touches it several times a
	// cycle and the payload type switch is too hot to repeat.
	addr    uint64
	arrived uint64
	direct  int // direct-link index it arrived on, or -1 for the ring
	// bank caches bankOf(addr), set at admission (and on restore, which
	// does not save it): the scan checks it for every queued request.
	bank int32
	// eccRetried marks a read whose first service hit an uncorrectable
	// (double-bit) ECC error: the data was refused and the access re-read.
	eccRetried bool
}

type completion struct {
	due uint64
	seq uint64
	q   queued
}

// completionQueue is a binary min-heap of in-service requests ordered by
// (due, seq). push and pop sift exactly as container/heap's Push and Pop
// do, without boxing entries, so the array order a checkpoint saves is the
// one container/heap would leave.
type completionQueue []completion

func (c completionQueue) less(i, j int) bool {
	if c[i].due != c[j].due {
		return c[i].due < c[j].due
	}
	return c[i].seq < c[j].seq
}

func (c *completionQueue) push(x completion) {
	*c = append(*c, x)
	h := *c
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (c *completionQueue) pop() completion {
	h := *c
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
	h[n] = completion{}
	*c = h[:n]
	return v
}

// Controller is one memory controller.
type Controller struct {
	Node  noc.NodeID
	cfg   Config
	store *mem.Sparse
	key   uint64

	inject *sim.Port[*noc.Packet] // responses toward the ring
	eject  *sim.Port[*noc.Packet] // requests from the ring

	directIn  []*sim.Port[*noc.Packet] // requests from the direct datapaths
	directOut []*sim.Port[*noc.Packet] // responses onto the direct datapaths

	queue []queued
	// prio counts the Priority requests in queue: added at admission,
	// removed at issue, recounted on restore. At 0 the queue-wide priority
	// pass cannot pick anything and is skipped.
	prio    int
	banks   []bank
	done    completionQueue
	seq     uint64
	scratch []*noc.Packet
	match   matchUnit

	// Fault injection (nil = no faults). eccSeq is the private counter the
	// SECDED model hashes; order stamps every applied write in service
	// order for the RAS undo log.
	inj    *fault.Injector
	eccSeq uint64
	order  uint64

	Stats Stats
	trace sim.TraceFn // nil unless a trace is wired in
}

// SetTracer installs a domain-event tracer; served MACT batches emit
// "dram" events.
func (c *Controller) SetTracer(fn sim.TraceFn) { c.trace = fn }

// SetFaultInjector installs the DRAM bit-flip / RAS injector.
func (c *Controller) SetFaultInjector(inj *fault.Injector) { c.inj = inj }

// New builds a controller bound to the shared backing store. inject/eject
// are the ports returned by attaching the controller to the main ring.
func New(node noc.NodeID, cfg Config, store *mem.Sparse, inject, eject *sim.Port[*noc.Packet], key uint64) *Controller {
	return &Controller{
		Node:   node,
		cfg:    cfg,
		store:  store,
		key:    key,
		inject: inject,
		eject:  eject,
		banks:  make([]bank, cfg.Banks),
	}
}

// AttachDirect connects the controller to the memory-side ports of one
// direct datapath link (send, recv as returned by DirectLink.EndB). A
// controller can terminate several links; responses return on the link the
// request arrived on.
func (c *Controller) AttachDirect(send, recv *sim.Port[*noc.Packet]) {
	c.directOut = append(c.directOut, send)
	c.directIn = append(c.directIn, recv)
}

func (c *Controller) bankOf(addr uint64) int {
	return int((addr / 64) % uint64(c.cfg.Banks))
}

func (c *Controller) rowOf(addr uint64) uint64 {
	return addr / uint64(c.cfg.RowBytes)
}

// admit appends a request to the FR-FCFS queue, caching its bank and
// counting it in prio if it is a priority request.
func (c *Controller) admit(p *noc.Packet, now uint64, direct int) {
	addr := c.addrOf(p)
	q := queued{pkt: p, addr: addr, arrived: now, direct: direct, bank: int32(c.bankOf(addr))}
	c.queue = append(c.queue, q)
	if p.Priority {
		c.prio++
	}
}

// Tick advances the controller one cycle.
func (c *Controller) Tick(now uint64) {
	// Admit new requests.
	c.scratch = c.eject.DrainInto(c.scratch[:0], 0)
	for _, p := range c.scratch {
		if p.Kind == noc.KMatchReq {
			c.offerMatch(p, now, -1)
			continue
		}
		c.admit(p, now, -1)
	}
	for i, in := range c.directIn {
		c.scratch = in.DrainInto(c.scratch[:0], 0)
		for _, p := range c.scratch {
			if p.Kind == noc.KMatchReq {
				c.offerMatch(p, now, i)
				continue
			}
			c.admit(p, now, i)
		}
	}
	c.tickMatch(now)

	// Issue: FR-FCFS-lite within a bounded window, subject to the data-bus
	// byte budget.
	budget := c.cfg.BusBytesPerCycle
	for budget > 0 && len(c.queue) > 0 {
		idx := -1
		// Prefer priority requests (searched queue-wide, modelling a
		// dedicated real-time queue), then row hits, then oldest — the
		// latter two within the FR-FCFS scan window. With no priority
		// request queued the first pass could pick nothing.
		pass := 0
		if c.prio == 0 {
			pass = 1
		}
		for ; pass < 3 && idx < 0; pass++ {
			window := c.cfg.ScanWindow
			if pass == 0 || window > len(c.queue) {
				window = len(c.queue)
			}
			for i := 0; i < window; i++ {
				q := &c.queue[i]
				b := &c.banks[q.bank]
				if b.busyUntil > now {
					continue
				}
				switch pass {
				case 0:
					if !q.pkt.Priority {
						continue
					}
				case 1:
					if !b.hasRow || b.openRow != c.rowOf(q.addr) {
						continue
					}
				}
				idx = i
				break
			}
		}
		if idx < 0 {
			break
		}
		q := c.queue[idx]
		dataBytes := c.dataBytes(q.pkt)
		if dataBytes > budget && budget < c.cfg.BusBytesPerCycle {
			break // wait for a fresh budget next cycle
		}
		if dataBytes > budget {
			// Oversized transfer (e.g. 64B line on a 23B bus): charge the
			// full budget and extend the service latency instead.
			budget = 0
		} else {
			budget -= dataBytes
		}
		c.queue = append(c.queue[:idx], c.queue[idx+1:]...)
		if q.pkt.Priority {
			c.prio--
		}
		c.service(now, q)
	}

	// Deliver completed requests.
	for len(c.done) > 0 && c.done[0].due <= now {
		comp := c.done.pop()
		c.complete(now, comp.q)
	}
}

// Commit implements sim.Ticker.
func (c *Controller) Commit(uint64) {}

func (c *Controller) addrOf(p *noc.Packet) uint64 {
	switch pl := p.Payload.(type) {
	case noc.MemReq:
		return pl.Addr
	case noc.BatchReq:
		return pl.LineAddr
	}
	panic(fmt.Sprintf("dram: unroutable payload %T", p.Payload))
}

func (c *Controller) dataBytes(p *noc.Packet) int {
	switch pl := p.Payload.(type) {
	case noc.MemReq:
		return pl.Size
	case noc.BatchReq:
		return 64
	}
	return 8
}

// service starts a request on its bank and schedules its completion.
func (c *Controller) service(now uint64, q queued) {
	addr := q.addr
	b := q.bank
	row := c.rowOf(addr)
	lat := c.cfg.RowMissCycles
	if c.banks[b].hasRow && c.banks[b].openRow == row {
		lat = c.cfg.RowHitCycles
		c.Stats.RowHits.Inc()
	} else {
		c.Stats.RowMisses.Inc()
	}
	// Oversized transfers extend occupancy by the extra bus cycles.
	extra := (c.dataBytes(q.pkt) - 1) / c.cfg.BusBytesPerCycle
	lat += extra
	c.banks[b] = bank{busyUntil: now + uint64(lat), openRow: row, hasRow: true}
	c.Stats.QueueLat.Observe(now - q.arrived)
	c.Stats.BytesBus.Add(uint64(c.dataBytes(q.pkt)))
	c.seq++
	c.done.push(completion{due: now + uint64(lat), seq: c.seq, q: q})
}

// eccCheck rolls the SECDED model for a read of `words` 64-bit words.
// It returns true when the data must be refused (uncorrectable double-bit
// flip): the caller re-reads the row. Single-bit flips are corrected in
// flight — counted, data unharmed.
func (c *Controller) eccCheck(words int) (refuse bool) {
	if c.inj == nil || words <= 0 {
		return false
	}
	c.eccSeq++
	_, double := c.inj.DRAMFault(c.key, c.eccSeq, words)
	return double
}

// complete applies the functional access and sends the response.
func (c *Controller) complete(now uint64, q queued) {
	p := q.pkt

	// SECDED ECC on the array read. An uncorrectable error refuses the
	// data and re-reads the row (once — the re-read is served clean, as a
	// transient flip does not survive the retry).
	if !q.eccRetried {
		words := 0
		switch pl := p.Payload.(type) {
		case noc.MemReq:
			if p.Kind == noc.KReqRead {
				words = (pl.Size + 7) / 8
			}
		case noc.BatchReq:
			if !pl.Write {
				words = 8
			}
		}
		if c.eccCheck(words) {
			q.eccRetried = true
			c.seq++
			c.done.push(completion{due: now + uint64(c.cfg.RowMissCycles), seq: c.seq, q: q})
			return
		}
	}

	c.Stats.Served.Inc()
	ras := c.inj.RASEnabled()
	var resp *noc.Packet
	switch pl := p.Payload.(type) {
	case noc.MemReq:
		switch p.Kind {
		case noc.KReqRead:
			c.Stats.Reads.Inc()
			r := noc.MemResp{ID: pl.ID, Addr: pl.Addr, Size: pl.Size, Thread: pl.Thread}
			if pl.Size <= 8 {
				r.Data = c.store.Read(pl.Addr, pl.Size)
			} else {
				r.Blob = c.store.ReadBytes(pl.Addr, pl.Size)
			}
			resp = noc.NewMemRespPacket(pl.ID, c.Node, p.Src, r, p.Priority, now)
		case noc.KReqWrite:
			c.Stats.Writes.Inc()
			r := noc.MemResp{ID: pl.ID, Addr: pl.Addr, Size: pl.Size, Thread: pl.Thread, Write: true}
			if ras {
				// Capture the overwritten value and a serve-order stamp
				// for the core-failure undo log.
				c.order++
				r.Order = c.order
				if pl.Blob != nil {
					r.Blob = c.store.ReadBytes(pl.Addr, pl.Size)
				} else {
					r.PreImage = c.store.Read(pl.Addr, pl.Size)
				}
			}
			if pl.Blob != nil {
				c.store.WriteBytes(pl.Addr, pl.Blob[:pl.Size])
			} else {
				c.store.Write(pl.Addr, pl.Size, pl.Data)
			}
			resp = noc.NewMemRespPacket(pl.ID, c.Node, p.Src, r, p.Priority, now)
		default:
			panic(fmt.Sprintf("dram: unexpected packet kind %v", p.Kind))
		}
	case noc.BatchReq:
		c.Stats.Batches.Inc()
		if c.trace != nil {
			c.trace("dram", fmt.Sprintf("batch line=%#x mc=%d", pl.LineAddr, c.Node.MCIndex()), now)
		}
		r := noc.BatchResp{ID: pl.ID, LineAddr: pl.LineAddr, Bitmap: pl.Bitmap, Write: pl.Write}
		if pl.Write {
			c.Stats.Writes.Inc()
			if ras {
				c.order++
				r.Order = c.order
			}
			for i := 0; i < 64; i++ {
				if pl.Bitmap&(1<<uint(i)) != 0 {
					if ras {
						r.Data[i] = c.store.ByteAt(pl.LineAddr + uint64(i))
					}
					c.store.SetByte(pl.LineAddr+uint64(i), pl.Data[i])
				}
			}
		} else {
			c.Stats.Reads.Inc()
			line := c.store.ReadBytes(pl.LineAddr, 64)
			copy(r.Data[:], line)
		}
		resp = noc.NewBatchRespPacket(pl.ID, c.Node, p.Src, r, now)
	default:
		panic(fmt.Sprintf("dram: unexpected payload %T", p.Payload))
	}
	c.seq++
	if q.direct >= 0 {
		// Direct-link B-side ports live in this controller's shard.
		c.directOut[q.direct].Send(c.key, c.seq, resp)
		return
	}
	// The main-ring inject port is owned by a router in the ring shard:
	// cross-shard send, stamped with the current cycle.
	c.inject.SendFrom(c.key, c.seq, now, resp)
}

// Quiescent implements sim.Quiescer: idle when no requests wait on any
// input, the FR-FCFS queue is empty (queued requests poll bank readiness
// every cycle, so they keep the controller awake), and the only future work
// is timer-driven — completions in the done heap or an in-flight
// near-memory match. The wake cycle is the earliest such event.
func (c *Controller) Quiescent(now uint64) (bool, uint64) {
	if !c.eject.Empty() {
		return false, 0
	}
	for _, in := range c.directIn {
		if !in.Empty() {
			return false, 0
		}
	}
	if len(c.queue) > 0 {
		return false, 0
	}
	mu := &c.match
	if mu.current == nil && len(mu.queue) > 0 {
		return false, 0
	}
	wake := uint64(sim.WakeNever)
	if mu.current != nil && mu.busyUntil < wake {
		wake = mu.busyUntil
	}
	if len(c.done) > 0 && c.done[0].due < wake {
		wake = c.done[0].due
	}
	return true, wake
}

// QueueLen returns the number of waiting requests (for congestion metrics).
func (c *Controller) QueueLen() int { return len(c.queue) }

// String names the controller for diagnostics.
func (c *Controller) String() string { return c.Node.String() }

// Progress implements sim.ProgressReporter: requests completed.
func (c *Controller) Progress() uint64 {
	return c.Stats.Served.Value() + c.Stats.Matches.Value()
}

// Health implements sim.HealthReporter: non-empty while requests pend.
func (c *Controller) Health() string {
	if len(c.queue) == 0 && len(c.done) == 0 {
		return ""
	}
	return fmt.Sprintf("%d queued, %d in service", len(c.queue), len(c.done))
}
