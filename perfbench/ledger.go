package main

import (
	"strings"
	"time"

	"smarco/internal/chip"
	"smarco/internal/sim"
)

// span is one timed call into a layer, recorded by the benchmark around the
// API call it makes.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for an operation's root span
	Run    int     `json:"run"`    // the operation (or set-up) the span belongs to
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the benchmark started
	End    float64 `json:"end_s"`
}

// spans keeps the run's spans in memory; the traced run writes them out when
// the benchmark ends.
type spans struct {
	t0   time.Time
	list []span
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// elapsed is the time since the benchmark started, in seconds.
func (s *spans) elapsed() float64 { return time.Since(s.t0).Seconds() }

// begin opens a span and returns its id.
func (s *spans) begin(name string, parent, run int) int {
	s.list = append(s.list, span{ID: len(s.list), Parent: parent, Run: run, Name: name, Start: s.elapsed()})
	return len(s.list) - 1
}

// end closes span id and returns its duration in seconds.
func (s *spans) end(id int) float64 {
	sp := &s.list[id]
	sp.End = s.elapsed()
	return sp.End - sp.Start
}

// shardClasses are the shard classes a ring-topology chip registers: one
// shard per sub-ring (cores, sub-ring routers, hub, MACT, sub-scheduler),
// one per memory controller with its direct links, the main ring and the
// main scheduler.
var shardClasses = []string{"sub", "mc", "mainring", "sched"}

// shardClass maps a shard label to its class by dropping the trailing index:
// sub12 -> sub, mc0 -> mc, mainring -> mainring.
func shardClass(label string) string { return strings.TrimRight(label, "0123456789") }

// classCost is the profiled wall time and component ticks of one shard class.
type classCost struct {
	seconds float64
	ticks   uint64
}

func classCosts(rows []sim.PartitionProfile) map[string]classCost {
	out := map[string]classCost{}
	for _, r := range rows {
		class := shardClass(r.Label)
		cc := out[class]
		cc.seconds += r.TotalSeconds
		cc.ticks += r.Ticks
		out[class] = cc
	}
	return out
}

// partitionCount is how many execution partitions the engine used: every
// shard row carries its partition index (all 0 under the serial executor).
func partitionCount(load []sim.ShardLoad) int {
	n := 1
	for _, l := range load {
		n = max(n, l.Partition+1)
	}
	return n
}

// tickRatio is the share of component-cycles the engine ticked: component
// ticks over components × cycles. The engine skips quiescent components, so
// a machine that mostly sleeps reads near 0.
func tickRatio(load []sim.ShardLoad, cycles uint64) float64 {
	var ticks, comps uint64
	for _, l := range load {
		ticks += l.Ticks
		comps += uint64(l.Components)
	}
	if comps == 0 || cycles == 0 {
		return 0
	}
	return float64(ticks) / (float64(comps) * float64(cycles))
}

// overheadNsPerCycle is the engine time no shard accounts for, per simulated
// cycle. Each partition's goroutine spans the whole run, so partitions × run
// time minus the profiled shard time is what round scans, barriers and
// worker handoff cost.
func overheadNsPerCycle(partitions int, runS float64, rows []sim.PartitionProfile, cycles uint64) float64 {
	var shard float64
	for _, r := range rows {
		shard += r.TotalSeconds
	}
	return (float64(partitions)*runS - shard) * 1e9 / float64(cycles)
}

// chipLedger derives the chip's per-layer rows after a profiled run that took
// runS seconds: engine overhead and per-class cost from the profiler, and
// the simulated machine's counts from chip.Metrics.
func chipLedger(c *chip.Chip, runS float64) map[string]float64 {
	m := c.Metrics()
	load := c.LoadReport()
	rows := c.Profile().Partitions()
	parts := partitionCount(load)
	cycles := float64(m.Cycles)
	v := map[string]float64{
		"sim.overhead_ns_per_cycle": overheadNsPerCycle(parts, runS, rows, m.Cycles),
		"sim.epochs":                float64(c.Epochs()),
		"sim.partitions":            float64(parts),
		"sim.tick_ratio":            tickRatio(load, m.Cycles),
		"chip.sim_cycles":           cycles,
		"cpu.instructions":          float64(m.Instructions),
		"cpu.ipc":                   m.IPC,
		"cpu.load_lat_mean":         m.LoadLatMean,
		"cpu.load_lat_p95":          float64(m.LoadLatP95),
		"noc.packets_moved":         float64(m.PacketsMoved),
		"noc.subring_util":          m.SubRingUtil,
		"noc.mainring_util":         m.MainRingUtil,
		"mact.collected":            float64(m.MACTCollected),
		"mact.batches":              float64(m.MACTBatches),
		"mact.bypassed":             float64(m.MACTBypassed),
		"dram.requests":             float64(m.MemRequests),
		"dram.row_hit_rate":         m.RowHitRate,
		"dram.bus_bytes":            float64(m.MemBusBytes),
		"sched.tasks_done":          float64(m.TasksDone),
	}
	costs := classCosts(rows)
	for _, class := range shardClasses {
		v[class+".ns_per_cycle"] = costs[class].seconds * 1e9 / cycles
		v[class+".ticks"] = float64(costs[class].ticks)
	}
	return v
}
