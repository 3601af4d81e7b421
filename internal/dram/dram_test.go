package dram

import (
	"fmt"
	"testing"

	"smarco/internal/mem"
	"smarco/internal/noc"
	"smarco/internal/sim"
	"smarco/internal/snapshot"
)

type harness struct {
	eng    *sim.Engine
	ctl    *Controller
	toMC   *sim.Port[*noc.Packet]
	fromMC *sim.Port[*noc.Packet]
	store  *mem.Sparse
}

func newHarness(cfg Config) *harness {
	h := &harness{eng: sim.NewEngine(), store: mem.NewSparse()}
	h.toMC = sim.NewPort[*noc.Packet](0)
	h.fromMC = sim.NewPort[*noc.Packet](0)
	// inject = responses out (fromMC), eject = requests in (toMC).
	h.ctl = New(noc.MCNode(0), cfg, h.store, h.fromMC, h.toMC, 1)
	h.eng.Add(h.ctl)
	h.eng.AddPortFor(h.ctl, h.toMC)
	h.eng.AddPort(h.fromMC)
	return h
}

func (h *harness) run(n int) {
	for i := 0; i < n; i++ {
		h.eng.Step()
	}
}

func (h *harness) send(p *noc.Packet) { h.toMC.Send(0, p.ID, p) }

func TestReadReturnsStoreData(t *testing.T) {
	h := newHarness(DDR4())
	h.store.Write(0x100, 4, 0xCAFEBABE)
	h.send(noc.NewMemReqPacket(1, noc.CoreNode(0), noc.MCNode(0),
		noc.MemReq{ID: 1, Addr: 0x100, Size: 4}, false, false, 0))
	h.run(100)
	resp, ok := h.fromMC.Pop()
	if !ok {
		t.Fatal("no response")
	}
	r := resp.Payload.(noc.MemResp)
	if r.Data != 0xCAFEBABE || r.Size != 4 {
		t.Fatalf("resp = %+v", r)
	}
	if resp.Dst != noc.CoreNode(0) {
		t.Fatal("response misrouted")
	}
}

func TestWriteAppliedAndAcked(t *testing.T) {
	h := newHarness(DDR4())
	h.send(noc.NewMemReqPacket(2, noc.CoreNode(3), noc.MCNode(0),
		noc.MemReq{ID: 2, Addr: 0x40, Size: 8, Data: 777}, true, false, 0))
	h.run(100)
	if h.store.ReadUint64(0x40) != 777 {
		t.Fatal("write not applied")
	}
	ack, ok := h.fromMC.Pop()
	if !ok || ack.Kind != noc.KRespWrite {
		t.Fatalf("ack = %v", ack)
	}
}

func TestWideBlobReadWrite(t *testing.T) {
	h := newHarness(DDR4())
	blob := make([]byte, 64)
	for i := range blob {
		blob[i] = byte(i)
	}
	h.send(noc.NewMemReqPacket(1, noc.CoreNode(0), noc.MCNode(0),
		noc.MemReq{ID: 1, Addr: 0x1000, Size: 64, Blob: blob}, true, false, 0))
	h.run(100)
	h.send(noc.NewMemReqPacket(2, noc.CoreNode(0), noc.MCNode(0),
		noc.MemReq{ID: 2, Addr: 0x1000, Size: 64}, false, false, 0))
	h.run(100)
	var read *noc.Packet
	for {
		p, ok := h.fromMC.Pop()
		if !ok {
			break
		}
		if p.Kind == noc.KRespRead {
			read = p
		}
	}
	if read == nil {
		t.Fatal("no read response")
	}
	r := read.Payload.(noc.MemResp)
	for i, b := range r.Blob {
		if b != byte(i) {
			t.Fatalf("blob[%d] = %d", i, b)
		}
	}
}

func TestBatchReadAndWrite(t *testing.T) {
	h := newHarness(DDR4())
	h.store.WriteBytes(0, []byte{1, 2, 3, 4})
	h.send(noc.NewBatchPacket(9, noc.HubNode(0), noc.MCNode(0),
		noc.BatchReq{ID: 9, LineAddr: 0, Bitmap: 0xF}, 0))
	h.run(100)
	resp, ok := h.fromMC.Pop()
	if !ok || resp.Kind != noc.KBatchRespRead {
		t.Fatalf("resp = %v", resp)
	}
	br := resp.Payload.(noc.BatchResp)
	if br.Data[0] != 1 || br.Data[3] != 4 {
		t.Fatalf("line data = %v", br.Data[:4])
	}
	// Batched write: only bitmap bytes applied.
	var data [64]byte
	data[0], data[1] = 0xAA, 0xBB
	h.send(noc.NewBatchPacket(10, noc.HubNode(0), noc.MCNode(0),
		noc.BatchReq{ID: 10, LineAddr: 0, Bitmap: 0x1, Data: data, Write: true}, 0))
	h.run(100)
	if h.store.ByteAt(0) != 0xAA {
		t.Fatal("bitmap byte not written")
	}
	if h.store.ByteAt(1) != 2 {
		t.Fatal("unmasked byte was overwritten")
	}
}

func TestRowHitFasterThanMiss(t *testing.T) {
	cfg := DDR4()
	h := newHarness(cfg)
	latency := func(addr uint64, id uint64) int {
		h.send(noc.NewMemReqPacket(id, noc.CoreNode(0), noc.MCNode(0),
			noc.MemReq{ID: id, Addr: addr, Size: 8}, false, false, 0))
		start := int(h.eng.Now())
		for i := 0; i < 200; i++ {
			h.eng.Step()
			if h.fromMC.Len() > 0 {
				h.fromMC.Pop()
				return int(h.eng.Now()) - start
			}
		}
		t.Fatal("no response")
		return 0
	}
	first := latency(0, 1)       // row miss (cold)
	second := latency(8, 2)      // same row: hit
	third := latency(1<<20+0, 3) // same bank (addr/64 % 8 == 0), new row: miss
	if second >= first {
		t.Fatalf("row hit (%d) not faster than cold miss (%d)", second, first)
	}
	if third <= second {
		t.Fatalf("row miss (%d) not slower than hit (%d)", third, second)
	}
	if h.ctl.Stats.RowHits.Value() == 0 || h.ctl.Stats.RowMisses.Value() == 0 {
		t.Fatal("row stats not recorded")
	}
}

func TestServiceOrderDefinesMemoryOrder(t *testing.T) {
	h := newHarness(DDR4())
	// Two writes to the same address arriving in order: the later one wins.
	h.send(noc.NewMemReqPacket(1, noc.CoreNode(0), noc.MCNode(0),
		noc.MemReq{ID: 1, Addr: 0x80, Size: 8, Data: 1}, true, false, 0))
	h.send(noc.NewMemReqPacket(2, noc.CoreNode(1), noc.MCNode(0),
		noc.MemReq{ID: 2, Addr: 0x80, Size: 8, Data: 2}, true, false, 0))
	h.run(200)
	if got := h.store.ReadUint64(0x80); got != 2 {
		t.Fatalf("final value = %d, want 2 (arrival order)", got)
	}
	if h.ctl.Stats.Served.Value() != 2 {
		t.Fatalf("served = %d", h.ctl.Stats.Served.Value())
	}
}

func TestBandwidthBounded(t *testing.T) {
	cfg := DDR4()
	h := newHarness(cfg)
	// Saturate with 8-byte reads to distinct banks; the bus budget bounds
	// throughput to BusBytesPerCycle per cycle.
	n := 200
	for i := 0; i < n; i++ {
		h.send(noc.NewMemReqPacket(uint64(i+1), noc.CoreNode(0), noc.MCNode(0),
			noc.MemReq{ID: uint64(i + 1), Addr: uint64(i) * 64, Size: 8}, false, false, 0))
	}
	cycles := 100
	h.run(cycles)
	maxBytes := uint64(cycles * cfg.BusBytesPerCycle)
	if got := h.ctl.Stats.BytesBus.Value(); got > maxBytes {
		t.Fatalf("moved %d bytes in %d cycles, budget %d", got, cycles, maxBytes)
	}
	if h.ctl.QueueLen() == 0 && h.ctl.Stats.Served.Value() < 10 {
		t.Fatal("controller barely progressed")
	}
}

func TestPriorityServedSooner(t *testing.T) {
	h := newHarness(DDR4())
	// Fill the queue with normal requests to one bank, then one priority
	// request to the same bank: priority should complete before most.
	for i := 0; i < 30; i++ {
		h.send(noc.NewMemReqPacket(uint64(i+1), noc.CoreNode(0), noc.MCNode(0),
			noc.MemReq{ID: uint64(i + 1), Addr: uint64(i) * 4096 * 8, Size: 8}, false, false, 0))
	}
	pri := noc.NewMemReqPacket(99, noc.CoreNode(1), noc.MCNode(0),
		noc.MemReq{ID: 99, Addr: 512, Size: 8}, false, true, 0)
	h.send(pri)
	h.run(1600)
	order := []uint64{}
	for {
		p, ok := h.fromMC.Pop()
		if !ok {
			break
		}
		order = append(order, p.Payload.(noc.MemResp).ID)
	}
	pos := -1
	for i, id := range order {
		if id == 99 {
			pos = i
		}
	}
	if pos < 0 {
		t.Fatal("priority request never completed")
	}
	if pos > len(order)/2 {
		t.Fatalf("priority request finished at position %d/%d", pos, len(order))
	}
}

func TestNearMemoryMatchUnit(t *testing.T) {
	h := newHarness(DDR4())
	h.store.WriteBytes(0x2000, []byte("abab zz abab ab ababab"))
	req := noc.MatchReq{ID: 7, TextAddr: 0x2000, TextLen: 22, PatLen: 4}
	copy(req.Pattern[:], "abab")
	h.send(noc.NewMatchReqPacket(7, noc.HostNode(), noc.MCNode(0), req, 0))
	h.run(200)
	resp, ok := h.fromMC.Pop()
	if !ok || resp.Kind != noc.KMatchResp {
		t.Fatalf("resp = %v", resp)
	}
	r := resp.Payload.(noc.MatchResp)
	// "abab zz abab ab ababab": matches at 0, 8, 16, 18 = 4 (overlapping).
	if r.Count != 4 {
		t.Fatalf("count = %d, want 4", r.Count)
	}
	if h.ctl.Stats.Matches.Value() != 1 {
		t.Fatal("match not counted")
	}
	if h.ctl.MatchBusy() {
		t.Fatal("unit should be idle")
	}
}

func TestMatchUnitTakesTimeProportionalToText(t *testing.T) {
	latency := func(n uint64) uint64 {
		h := newHarness(DDR4())
		req := noc.MatchReq{ID: 1, TextAddr: 0, TextLen: n, PatLen: 2}
		copy(req.Pattern[:], "xy")
		h.send(noc.NewMatchReqPacket(1, noc.HostNode(), noc.MCNode(0), req, 0))
		for i := uint64(0); i < 100_000; i++ {
			h.eng.Step()
			if h.fromMC.Len() > 0 {
				return h.eng.Now()
			}
		}
		t.Fatal("no response")
		return 0
	}
	small := latency(1024)
	big := latency(64 * 1024)
	if big < 10*small {
		t.Fatalf("scan time should grow with text: %d vs %d", small, big)
	}
}

func TestMatchUnitEdgeCases(t *testing.T) {
	h := newHarness(DDR4())
	// Pattern longer than text: zero matches.
	req := noc.MatchReq{ID: 1, TextAddr: 0, TextLen: 2, PatLen: 4}
	h.send(noc.NewMatchReqPacket(1, noc.HostNode(), noc.MCNode(0), req, 0))
	h.run(200)
	resp, ok := h.fromMC.Pop()
	if !ok {
		t.Fatal("no response")
	}
	if resp.Payload.(noc.MatchResp).Count != 0 {
		t.Fatal("expected zero matches")
	}
}

// read returns a normal or priority 8-byte read of addr tagged id.
func read(id, addr uint64, priority bool) *noc.Packet {
	return noc.NewMemReqPacket(id, noc.CoreNode(0), noc.MCNode(0),
		noc.MemReq{ID: id, Addr: addr, Size: 8}, false, priority, 0)
}

// responses steps the harness n cycles and logs each response as
// {cycle it became visible, request id}.
func (h *harness) responses(n int, log *[][2]uint64) {
	for i := 0; i < n; i++ {
		h.eng.Step()
		for {
			p, ok := h.fromMC.Pop()
			if !ok {
				break
			}
			*log = append(*log, [2]uint64{h.eng.Now(), p.Payload.(noc.MemResp).ID})
		}
	}
}

// order lists the request ids of a response log.
func order(log [][2]uint64) []uint64 {
	ids := make([]uint64, len(log))
	for i, r := range log {
		ids[i] = r[1]
	}
	return ids
}

// Bank-0 addresses on DDR4 (8 banks interleaved every 64 bytes), each in
// its own row unless noted.
const (
	row0  = 0x0     // row 0
	row0b = 0x200   // row 0 again: a row hit once row 0 is open
	rowA  = 0x10000 // row 32
	rowB  = 0x20000 // row 64
	rowC  = 0x30000 // row 96
)

// TestPriorityIssuedFirstOnFreeBank: a priority request queued behind
// normal ones to the same busy bank is the first issued once the bank
// frees, and the queued-priority count returns to 0 after it issues.
func TestPriorityIssuedFirstOnFreeBank(t *testing.T) {
	h := newHarness(DDR4())
	var log [][2]uint64
	h.send(read(1, row0, false))
	h.responses(2, &log) // 1 issues at once and holds bank 0
	h.send(read(2, rowA, false))
	h.send(read(3, rowB, false))
	h.send(read(4, rowC, true))
	h.responses(2, &log)
	if h.ctl.prio != 1 || h.ctl.QueueLen() != 3 {
		t.Fatalf("after admission: prio %d, queue %d; want 1 and 3", h.ctl.prio, h.ctl.QueueLen())
	}
	h.responses(400, &log)
	if got, want := fmt.Sprint(order(log)), "[1 4 2 3]"; got != want {
		t.Fatalf("issue order %v, want %v", got, want)
	}
	if h.ctl.prio != 0 {
		t.Fatalf("prio = %d after the priority request issued, want 0", h.ctl.prio)
	}
}

// TestNormalOrderRowHitThenOldest: with only normal requests queued, a
// row hit in the scan window goes first, then the oldest request.
func TestNormalOrderRowHitThenOldest(t *testing.T) {
	h := newHarness(DDR4())
	var log [][2]uint64
	h.send(read(1, row0, false))
	h.responses(2, &log) // 1 opens row 0 and holds bank 0
	h.send(read(2, rowA, false))
	h.send(read(3, row0b, false)) // younger, but a row hit
	h.send(read(4, rowB, false))
	h.send(read(5, rowC, false))
	h.responses(400, &log)
	if got, want := fmt.Sprint(order(log)), "[1 3 2 4 5]"; got != want {
		t.Fatalf("issue order %v, want %v", got, want)
	}
	if h.ctl.prio != 0 {
		t.Fatalf("prio = %d with no priority request, want 0", h.ctl.prio)
	}
}

// TestRestoreRecountsPriority: a controller restored from a checkpoint
// taken while a priority request waits behind normal ones issues it in
// the same cycle as the uninterrupted controller. The count is not in the
// snapshot, so this holds only if restore recounts it.
func TestRestoreRecountsPriority(t *testing.T) {
	start := func() (*harness, [][2]uint64) {
		h := newHarness(DDR4())
		var log [][2]uint64
		h.send(read(1, row0, false))
		h.responses(2, &log)
		for i := uint64(0); i < 4; i++ {
			h.send(read(10+i, rowA+i*0x10000, false))
		}
		h.send(read(99, row0b+0x40000, true))
		h.responses(5, &log) // the priority request now waits for bank 0
		return h, log
	}
	ref, refLog := start()
	ref.responses(600, &refLog)

	h, log := start()
	if h.ctl.prio != 1 {
		t.Fatalf("prio = %d before the checkpoint, want 1", h.ctl.prio)
	}
	enc := snapshot.NewEncoder()
	h.eng.SaveState(enc)
	h.ctl.SaveState(enc)
	res := newHarness(DDR4())
	dec := snapshot.NewDecoder(enc.Bytes())
	res.eng.RestoreState(dec)
	res.ctl.RestoreState(dec)
	if err := dec.Err(); err != nil {
		t.Fatal(err)
	}
	res.responses(600, &log)
	if got, want := fmt.Sprint(log), fmt.Sprint(refLog); got != want {
		t.Fatalf("restored run responded %v, uninterrupted %v", got, want)
	}
	if order(refLog)[1] != 99 {
		t.Fatalf("priority request was not issued first after the busy bank: %v", order(refLog))
	}
}
