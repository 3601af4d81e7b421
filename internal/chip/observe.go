// Observability: event tracing, wall-time profiling, the results
// snapshot and the run report beside it. See DESIGN.md §8 for the mid-run
// snapshot (Settle) contract these build on.
package chip

import (
	"fmt"
	"io"

	"smarco/internal/sim"
)

// EnableTrace installs an event trace over the whole chip: engine-level
// activity/sleep spans, wake causes and port deliveries for every
// component, plus domain events from the cores (task start/done), the
// sub-schedulers (dispatches), the MACTs (batch flushes), the memory
// controllers (batch service), and the ring routers (backpressure stalls).
// limit caps the recorded events per partition (<= 0 selects
// sim.DefaultTraceEvents). Call before running; export with WriteTrace.
//
// Tracing never perturbs the simulation: cycle counts and all metrics are
// bit-identical with tracing on or off.
func (c *Chip) EnableTrace(limit int) *sim.Trace {
	t := sim.NewTrace(limit)
	c.eng.SetTrace(t)
	emit := sim.TraceFn(t.Emit)
	for _, core := range c.Cores {
		core.SetTracer(emit)
	}
	for _, s := range c.Subs {
		s.SetTracer(emit)
	}
	for _, mc := range c.MCs {
		mc.SetTracer(emit)
	}
	for _, h := range c.Hubs {
		h.MACT.SetTracer(emit)
	}
	for _, r := range c.SubRings {
		for _, rt := range r.Routers() {
			rt.SetTracer(emit)
		}
	}
	if c.MainRing != nil {
		for _, rt := range c.MainRing.Routers() {
			rt.SetTracer(emit)
		}
	}
	c.trace = t
	return t
}

// WriteTrace exports the trace installed by EnableTrace as Chrome
// trace-event JSON (open in chrome://tracing or Perfetto).
func (c *Chip) WriteTrace(w io.Writer) error {
	if c.trace == nil {
		return fmt.Errorf("chip: tracing not enabled (call EnableTrace before running)")
	}
	return c.eng.WriteTrace(w)
}

// EnableProfile installs the engine's per-shard wall-time profiler
// (tick/port/commit attribution at any partition count). Call before
// running; read the result with Profile. Shards are labeled at
// registration (sub0..subN, mc0..mcN, mainring, sched — or mesh), so
// profile rows arrive named.
func (c *Chip) EnableProfile() *sim.Profile {
	p := sim.NewProfile()
	c.eng.SetProfile(p)
	c.prof = p
	return p
}

// Profile returns the profiler installed by EnableProfile (nil without
// one).
func (c *Chip) Profile() *sim.Profile { return c.prof }

// LoadReport returns the engine's deterministic per-shard load picture:
// component counts, component-tick counts with engine-wide shares, and the
// current shard→partition assignment. Available on every chip, profiling
// enabled or not; tick counts are identical across hosts and partition
// counts.
func (c *Chip) LoadReport() []sim.ShardLoad { return c.eng.LoadReport() }

// SnapshotChip summarizes the machine a snapshot was taken on.
type SnapshotChip struct {
	SubRings    int    `json:"sub_rings"`
	CoresPerSub int    `json:"cores_per_sub"`
	Cores       int    `json:"cores"`
	Threads     int    `json:"threads"`
	MCs         int    `json:"mcs"`
	Topology    string `json:"topology"`
	// LinkLatency is the configured cross-shard link delay (0 = 1-cycle
	// links). It defines the simulated machine: cycle counts change with
	// it.
	LinkLatency uint64 `json:"link_latency,omitempty"`
	// Per-class cross-link latencies (DESIGN.md §14); reported only when
	// they override the uniform LinkLatency, which they refine per class.
	DRAMLatency     uint64  `json:"dram_latency,omitempty"`
	MainRingLatency uint64  `json:"mainring_latency,omitempty"`
	SubRingLatency  uint64  `json:"subring_latency,omitempty"`
	CreditLatency   uint64  `json:"credit_latency,omitempty"`
	ClockHz         float64 `json:"clock_hz"`
}

// ShardTicks is one shard's row of Snapshot.Load: its component count and
// the component ticks it ran, with their share of the chip's total.
type ShardTicks struct {
	Shard      int     `json:"shard"`
	Label      string  `json:"label"`
	Components int     `json:"components"`
	Ticks      uint64  `json:"ticks"`
	TickShare  float64 `json:"tick_share"`
}

// Snapshot is what the simulated machine did: its configuration, cycle
// count and metrics, shared by smarcosim, smarcobench and the goldens.
// It holds nothing about how the host ran it (see RunReport), so two runs
// of one machine and workload give byte-identical snapshots at every
// partition count and window cap, across checkpoint restores, and with
// tracing or profiling on. Metrics are settled (see Chip.Metrics) at
// capture time.
type Snapshot struct {
	Label    string  `json:"label,omitempty"`
	Workload string  `json:"workload,omitempty"`
	Cycles   uint64  `json:"cycles"`
	Seconds  float64 `json:"seconds"` // simulated time at ClockHz
	// Sampled marks a sampled run (DESIGN.md §13): Cycles/Seconds are the
	// SMARTS extrapolation from SampleWindows detailed windows, EstError is
	// the 95% confidence half-width relative to Cycles, and Metrics
	// describes only the detailed windows (the functional fast-forward
	// spans execute no timed state).
	Sampled       bool         `json:"sampled,omitempty"`
	SampleWindows int          `json:"sample_windows,omitempty"`
	EstError      float64      `json:"est_error,omitempty"`
	Chip          SnapshotChip `json:"chip"`
	Metrics       Metrics      `json:"metrics"`
	Load          []ShardTicks `json:"load,omitempty"`
}

// Snapshot captures the chip's current results.
func (c *Chip) Snapshot(label, workload string) Snapshot {
	topo := c.Config.Topology
	if topo == "" {
		topo = "ring"
	}
	s := Snapshot{
		Label:    label,
		Workload: workload,
		Cycles:   c.Now(),
		Seconds:  c.Seconds(c.Now()),
		Chip: SnapshotChip{
			SubRings:        c.Config.SubRings,
			CoresPerSub:     c.Config.CoresPerSub,
			Cores:           c.Config.Cores(),
			Threads:         c.Config.Threads(),
			MCs:             c.Config.MCs,
			Topology:        topo,
			LinkLatency:     c.Config.LinkLatency,
			DRAMLatency:     c.Config.DRAMLatency,
			MainRingLatency: c.Config.MainRingLatency,
			SubRingLatency:  c.Config.SubRingLatency,
			CreditLatency:   c.Config.CreditLatency,
			ClockHz:         c.Config.ClockHz,
		},
		Metrics: c.Metrics(),
	}
	if r := c.Sampled(); r != nil {
		s.Sampled = true
		s.SampleWindows = len(r.Windows)
		s.EstError = r.RelErr
		s.Cycles = r.EstCycles
		s.Seconds = c.Seconds(r.EstCycles)
	}
	for _, l := range c.LoadReport() {
		s.Load = append(s.Load, ShardTicks{Shard: l.Shard, Label: l.Label,
			Components: l.Components, Ticks: l.Ticks, TickShare: l.TickShare})
	}
	return s
}

// RunReport is how the host ran the chip: facts that change with the
// partition count, the window cap, profiling and tracing, and never with
// the simulated machine. Every writer of a Snapshot writes one beside it.
type RunReport struct {
	// Partitions is the partition count; Load is the engine's load report,
	// which gives each shard's partition beside its tick counts.
	Partitions int             `json:"partitions"`
	Load       []sim.ShardLoad `json:"load"`
	// Lookahead is the narrowest effective shard window in cycles (1 on
	// the mesh, which has no cross links); Windows gives each shard's
	// window and the multi-cycle blocks it ran, and Epochs counts the
	// multi-cycle windows (DESIGN.md §12, §14).
	Lookahead uint64            `json:"lookahead"`
	Windows   []sim.ShardWindow `json:"windows"`
	Epochs    uint64            `json:"epochs"`
	// Handed of Dispatched dispatches went to the workers (see
	// sim.Engine.Handoffs).
	Handed     uint64                 `json:"handed"`
	Dispatched uint64                 `json:"dispatched"`
	Profile    []sim.PartitionProfile `json:"profile,omitempty"`
	// TraceDropped counts trace events lost to the buffer cap (0 means the
	// trace, when enabled, is complete).
	TraceDropped uint64 `json:"trace_dropped,omitempty"`
}

// RunReport captures how the host has run the chip so far.
func (c *Chip) RunReport() RunReport {
	r := RunReport{
		Partitions: c.eng.Partitions(),
		Load:       c.LoadReport(),
		Lookahead:  c.eng.Lookahead(),
		Windows:    c.eng.WindowReport(),
		Epochs:     c.eng.Epochs(),
	}
	r.Handed, r.Dispatched = c.eng.Handoffs()
	if c.prof != nil {
		r.Profile = c.prof.Partitions()
	}
	if c.trace != nil {
		r.TraceDropped = c.trace.Dropped()
	}
	return r
}

// Record is a chip run as smarcosim -json and smarcobench -engine -json
// write it: the results, and beside them how the host ran them.
type Record struct {
	Snapshot Snapshot  `json:"snapshot"`
	Run      RunReport `json:"run"`
}

// Record captures the chip's Snapshot and RunReport together.
func (c *Chip) Record(label, workload string) Record {
	return Record{Snapshot: c.Snapshot(label, workload), Run: c.RunReport()}
}
