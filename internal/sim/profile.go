// Per-shard wall-time attribution for the engine's executors. A Profile
// accumulates, for every shard, the host wall time spent in each of the
// three cycle phases (tick, port commit, component commit), under both the
// serial and the parallel executor, alongside the deterministic component-
// tick counts the load balancer runs on. Comparing shard totals — and the
// per-partition groupings of them — exposes load imbalance and makes it
// attributable: a hot partition is a list of named shards with tick
// shares, not an opaque goroutine.
package sim

import (
	"fmt"
	"strings"
	"time"
)

// PartitionProfile is one shard's attribution, exported for JSON
// snapshots. (The name predates load-balanced partitioning, when shards
// and partitions were one-to-one; rows are per shard, with Partition
// recording the execution partition the shard is currently assigned to.)
type PartitionProfile struct {
	Shard         int     `json:"shard"`
	Label         string  `json:"label"`
	Partition     int     `json:"partition"` // current execution assignment
	Components    int     `json:"components"`
	Ticks         uint64  `json:"ticks"`      // deterministic component-tick count
	TickShare     float64 `json:"tick_share"` // of the engine-wide tick count
	TickSeconds   float64 `json:"tick_seconds"`
	PortSeconds   float64 `json:"port_seconds"`
	CommitSeconds float64 `json:"commit_seconds"`
	TotalSeconds  float64 `json:"total_seconds"`
	Share         float64 `json:"share"` // of the summed shard wall time
}

// ShardLoad is one row of Engine.LoadReport: the deterministic load view
// that is always available, profiling installed or not.
type ShardLoad struct {
	Shard      int     `json:"shard"`
	Label      string  `json:"label"`
	Partition  int     `json:"partition"`
	Components int     `json:"components"`
	Ticks      uint64  `json:"ticks"`
	TickShare  float64 `json:"tick_share"`
}

// LoadReport returns the per-shard deterministic load picture: component
// counts, accumulated tick counts with engine-wide shares, and the current
// shard→partition assignment. Unlike a Profile it costs nothing during the
// run (the tick counters are maintained regardless, for the load
// balancer), and unlike wall times the tick counts are identical across
// hosts and executors.
func (e *Engine) LoadReport() []ShardLoad {
	e.ensureParts()
	var total uint64
	for _, sh := range e.shards {
		total += sh.ticks
	}
	out := make([]ShardLoad, len(e.shards))
	for si, sh := range e.shards {
		pi := 0
		if sh.part != nil {
			pi = sh.part.pi
		}
		out[si] = ShardLoad{
			Shard:      sh.id,
			Label:      sh.label,
			Partition:  pi,
			Components: len(sh.comps),
			Ticks:      sh.ticks,
		}
		if total > 0 {
			out[si].TickShare = float64(sh.ticks) / float64(total)
		}
	}
	return out
}

// Profile accumulates per-shard phase timings. Install with
// Engine.SetProfile before running; read with Partitions or String after.
// Each shard's slot is written only by the goroutine of the partition that
// currently owns the shard (round barriers order writes across
// reassignments), so the parallel executor profiles without locks.
type Profile struct {
	eng   *Engine
	acc   [][3]time.Duration
	steps uint64
}

// NewProfile returns an empty profile.
func NewProfile() *Profile { return &Profile{} }

// SetProfile installs (or, with nil, removes) a wall-time profiler.
func (e *Engine) SetProfile(p *Profile) {
	e.prof = p
	for _, sh := range e.shards {
		sh.prof = p
	}
	if p == nil {
		return
	}
	p.eng = e
	p.acc = make([][3]time.Duration, len(e.shards))
}

// add accumulates one phase execution for a shard.
func (p *Profile) add(si, ph int, d time.Duration) { p.acc[si][ph] += d }

// Steps returns the number of engine cycles executed while profiling.
func (p *Profile) Steps() uint64 { return p.steps }

// Partitions returns the per-shard attribution (one row per shard, its
// current execution partition in Partition), with Share computed over the
// summed shard wall time and TickShare over the engine-wide tick count.
func (p *Profile) Partitions() []PartitionProfile {
	if p.eng == nil {
		return nil
	}
	load := p.eng.LoadReport()
	var total time.Duration
	for _, a := range p.acc {
		total += a[0] + a[1] + a[2]
	}
	out := make([]PartitionProfile, len(p.acc))
	for si, a := range p.acc {
		t := a[0] + a[1] + a[2]
		pp := PartitionProfile{
			Shard:         load[si].Shard,
			Label:         load[si].Label,
			Partition:     load[si].Partition,
			Components:    load[si].Components,
			Ticks:         load[si].Ticks,
			TickShare:     load[si].TickShare,
			TickSeconds:   a[0].Seconds(),
			PortSeconds:   a[1].Seconds(),
			CommitSeconds: a[2].Seconds(),
			TotalSeconds:  t.Seconds(),
		}
		if total > 0 {
			pp.Share = float64(t) / float64(total)
		}
		out[si] = pp
	}
	return out
}

// String renders the attribution as an aligned text report: one line per
// shard with its current partition, then per-partition totals, ending with
// the load-imbalance factor (slowest partition over the mean — 1.0 is a
// perfectly balanced assignment).
func (p *Profile) String() string {
	rows := p.Partitions()
	var b strings.Builder
	fmt.Fprintf(&b, "engine wall-time attribution (%d cycles)\n", p.steps)
	fmt.Fprintf(&b, "%-14s %4s %5s %6s %10s %10s %10s %10s %6s\n",
		"shard", "part", "comps", "tick%", "tick ms", "port ms", "commit ms", "total ms", "share")
	nParts := 0
	for _, pp := range rows {
		fmt.Fprintf(&b, "%-14s %4d %5d %5.1f%% %10.2f %10.2f %10.2f %10.2f %5.1f%%\n",
			pp.Label, pp.Partition, pp.Components, pp.TickShare*100,
			pp.TickSeconds*1e3, pp.PortSeconds*1e3, pp.CommitSeconds*1e3,
			pp.TotalSeconds*1e3, pp.Share*100)
		if pp.Partition >= nParts {
			nParts = pp.Partition + 1
		}
	}
	if nParts > 0 {
		wall := make([]float64, nParts)
		for _, pp := range rows {
			wall[pp.Partition] += pp.TotalSeconds
		}
		var max, sum float64
		for _, w := range wall {
			sum += w
			if w > max {
				max = w
			}
		}
		if sum > 0 {
			mean := sum / float64(nParts)
			fmt.Fprintf(&b, "load imbalance: %.2fx (max/mean partition time, %d partitions)\n", max/mean, nParts)
		}
	}
	return b.String()
}
