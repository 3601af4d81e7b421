// Checkpoint serialization for the memory controller: the FR-FCFS request
// queue, bank timing state, the completion heap, the near-memory match
// unit, and the private fault-injection counters. The controller drains the
// ring eject port and the direct-link receive ports, so it saves those; the
// shared backing store is saved once by the chip, not per controller.
package dram

import (
	"smarco/internal/noc"
	"smarco/internal/sim"
	"smarco/internal/snapshot"
)

func saveQueued(e *snapshot.Encoder, q queued) {
	noc.EncodePacket(e, q.pkt)
	e.U64(q.addr)
	e.U64(q.arrived)
	e.Int(q.direct)
	e.Bool(q.eccRetried)
}

func restoreQueued(d *snapshot.Decoder) queued {
	var q queued
	q.pkt = noc.DecodePacket(d)
	q.addr = d.U64()
	q.arrived = d.U64()
	q.direct = d.Int()
	q.eccRetried = d.Bool()
	return q
}

// SaveState implements sim.Saver.
func (c *Controller) SaveState(e *snapshot.Encoder) {
	sim.SavePort(e, c.eject, noc.EncodePacket)
	e.U32(uint32(len(c.directIn)))
	for _, in := range c.directIn {
		sim.SavePort(e, in, noc.EncodePacket)
	}
	e.U32(uint32(len(c.queue)))
	for _, q := range c.queue {
		saveQueued(e, q)
	}
	e.U32(uint32(len(c.banks)))
	for _, b := range c.banks {
		e.U64(b.busyUntil)
		e.U64(b.openRow)
		e.Bool(b.hasRow)
	}
	// Completion heap in array order (layout restored verbatim).
	e.U32(uint32(len(c.done)))
	for _, comp := range c.done {
		e.U64(comp.due)
		e.U64(comp.seq)
		saveQueued(e, comp.q)
	}
	e.U64(c.seq)
	// Match unit.
	e.U32(uint32(len(c.match.queue)))
	for _, q := range c.match.queue {
		saveQueued(e, q)
	}
	e.U64(c.match.busyUntil)
	e.Bool(c.match.current != nil)
	if c.match.current != nil {
		saveQueued(e, *c.match.current)
	}
	e.U64(c.eccSeq)
	e.U64(c.order)
	c.Stats.Served.Save(e)
	c.Stats.Reads.Save(e)
	c.Stats.Writes.Save(e)
	c.Stats.Batches.Save(e)
	c.Stats.Matches.Save(e)
	c.Stats.BytesBus.Save(e)
	c.Stats.RowHits.Save(e)
	c.Stats.RowMisses.Save(e)
	c.Stats.QueueLat.Save(e)
}

// RestoreState implements sim.Restorer.
func (c *Controller) RestoreState(d *snapshot.Decoder) {
	sim.RestorePort(d, c.eject, noc.DecodePacket)
	nDirect := int(d.U32())
	if nDirect != len(c.directIn) {
		d.Fail("dram: snapshot has %d direct links, controller has %d", nDirect, len(c.directIn))
		return
	}
	for _, in := range c.directIn {
		sim.RestorePort(d, in, noc.DecodePacket)
	}
	n := int(d.U32())
	c.queue = c.queue[:0]
	c.prio = 0
	for i := 0; i < n; i++ {
		q := restoreQueued(d)
		q.bank = int32(c.bankOf(q.addr))
		if q.pkt.Priority {
			c.prio++
		}
		c.queue = append(c.queue, q)
	}
	nBanks := int(d.U32())
	if nBanks != len(c.banks) {
		d.Fail("dram: snapshot has %d banks, controller has %d", nBanks, len(c.banks))
		return
	}
	for i := range c.banks {
		c.banks[i].busyUntil = d.U64()
		c.banks[i].openRow = d.U64()
		c.banks[i].hasRow = d.Bool()
	}
	n = int(d.U32())
	c.done = c.done[:0]
	for i := 0; i < n; i++ {
		var comp completion
		comp.due = d.U64()
		comp.seq = d.U64()
		comp.q = restoreQueued(d)
		c.done = append(c.done, comp)
	}
	c.seq = d.U64()
	n = int(d.U32())
	c.match.queue = c.match.queue[:0]
	for i := 0; i < n; i++ {
		c.match.queue = append(c.match.queue, restoreQueued(d))
	}
	c.match.busyUntil = d.U64()
	c.match.current = nil
	if d.Bool() {
		q := restoreQueued(d)
		c.match.current = &q
	}
	c.eccSeq = d.U64()
	c.order = d.U64()
	c.Stats.Served.Restore(d)
	c.Stats.Reads.Restore(d)
	c.Stats.Writes.Restore(d)
	c.Stats.Batches.Restore(d)
	c.Stats.Matches.Restore(d)
	c.Stats.BytesBus.Restore(d)
	c.Stats.RowHits.Restore(d)
	c.Stats.RowMisses.Restore(d)
	c.Stats.QueueLat.Restore(d)
}
