package dram

import (
	"testing"

	"smarco/internal/mem"
	"smarco/internal/noc"
	"smarco/internal/sim"
)

// BenchmarkControllerTick times one controller cycle, called directly:
// "busy-banks" with 16 requests queued behind banks that never free (each
// tick scans the queue and issues nothing), and "issuing" on a controller
// whose eight banks each take eight cycles, fed one read a cycle to the
// bank that frees that cycle, so every tick admits, issues and completes
// one request. The issuing case also commits the request and response
// ports and drains the responses.
func BenchmarkControllerTick(b *testing.B) {
	build := func(cfg Config) (*Controller, *sim.Port[*noc.Packet], *sim.Port[*noc.Packet]) {
		toMC := sim.NewPort[*noc.Packet](0)
		fromMC := sim.NewPort[*noc.Packet](0)
		return New(noc.MCNode(0), cfg, mem.NewSparse(), fromMC, toMC, 1), toMC, fromMC
	}
	b.Run("busy-banks", func(b *testing.B) {
		c, toMC, _ := build(DDR4())
		for i := uint64(0); i < 16; i++ {
			toMC.Send(0, i, read(i, i*64, false))
		}
		toMC.Commit(0)
		for i := range c.banks {
			c.banks[i].busyUntil = ^uint64(0)
		}
		c.Tick(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 1; i <= b.N; i++ {
			c.Tick(uint64(i))
		}
		if len(c.queue) != 16 {
			b.Fatalf("%d requests queued, want 16", len(c.queue))
		}
	})
	b.Run("issuing", func(b *testing.B) {
		cfg := DDR4()
		cfg.RowHitCycles, cfg.RowMissCycles, cfg.BusBytesPerCycle = 8, 8, 64
		c, toMC, fromMC := build(cfg)
		reqs := make([]*noc.Packet, 64)
		for i := range reqs {
			reqs[i] = read(uint64(i), uint64(i%8)*64+uint64(i/8)*0x10000, false)
		}
		var sink []*noc.Packet
		served := c.Stats.Served.Value()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			now := uint64(i)
			toMC.Send(0, now, reqs[i%len(reqs)])
			toMC.Commit(now)
			c.Tick(now)
			fromMC.Commit(now)
			sink = fromMC.DrainInto(sink[:0], 0)
		}
		if b.N > 16 && c.Stats.Served.Value()-served < uint64(b.N-16) {
			b.Fatalf("served %d of %d requests", c.Stats.Served.Value()-served, b.N)
		}
	})
}
