// Observability: event tracing, wall-time profiling, and the unified JSON
// metrics snapshot. See DESIGN.md §8 for the mid-run snapshot (Settle)
// contract these build on.
package chip

import (
	"encoding/json"
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
// (tick/port/commit attribution under either executor). Call before
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
// enabled or not; tick counts are identical across hosts and executors.
func (c *Chip) LoadReport() []sim.ShardLoad { return c.eng.LoadReport() }

// SnapshotChip summarizes the configuration a snapshot was taken on.
type SnapshotChip struct {
	SubRings    int    `json:"sub_rings"`
	CoresPerSub int    `json:"cores_per_sub"`
	Cores       int    `json:"cores"`
	Threads     int    `json:"threads"`
	MCs         int    `json:"mcs"`
	Topology    string `json:"topology"`
	Parallel    bool   `json:"parallel"` // effective executor for this run
	Executor    string `json:"executor,omitempty"`
	// LinkLatency is the configured cross-shard link delay (0 = historical
	// 1-cycle links); Lookahead is the effective epoch window the engine
	// ran with — the conservative window derived from the link latencies,
	// clamped by Config.Lookahead, reported only when > 1 (the classic
	// cycle-by-cycle machine omits it). Both are execution-mode facts,
	// like Parallel: results are identical across Lookahead settings.
	LinkLatency uint64 `json:"link_latency,omitempty"`
	Lookahead   uint64 `json:"lookahead,omitempty"`
	// Per-class cross-link latencies (DESIGN.md §14); reported only when
	// they override the uniform LinkLatency. Unlike LinkLatency they are
	// configuration facts that define the simulated machine per class.
	DRAMLatency     uint64  `json:"dram_latency,omitempty"`
	MainRingLatency uint64  `json:"mainring_latency,omitempty"`
	SubRingLatency  uint64  `json:"subring_latency,omitempty"`
	CreditLatency   uint64  `json:"credit_latency,omitempty"`
	ClockHz         float64 `json:"clock_hz"`
}

// Snapshot is the unified JSON metrics export shared by smarcosim and
// smarcobench: one schema whether the run came from a benchmark binary, an
// experiment harness, or a mid-run sample. Metrics are settled (see
// Chip.Metrics) at capture time.
type Snapshot struct {
	Label    string  `json:"label,omitempty"`
	Workload string  `json:"workload,omitempty"`
	Cycles   uint64  `json:"cycles"`
	Seconds  float64 `json:"seconds"` // simulated time at ClockHz
	// Epochs counts engine synchronization rounds: with lookahead n the
	// engine barriers once per epoch instead of once per cycle, so
	// Cycles/Epochs approaches the lookahead window on busy runs. A
	// wall-time diagnostic, not simulated state (never checkpointed).
	Epochs uint64 `json:"epochs,omitempty"`
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
	// Load is the deterministic per-shard load report (component-tick
	// counts and shares plus the shard→partition assignment). Tick counts
	// and shares are identical across hosts and executors; the Partition
	// column reflects this run's assignment (all zero under serial).
	Load    []sim.ShardLoad        `json:"load,omitempty"`
	Profile []sim.PartitionProfile `json:"profile,omitempty"`
	// Windows is the per-shard lookahead-window report (DESIGN.md §14),
	// present whenever some shard may fuse multi-cycle blocks: each
	// shard's safe window (a pure function of the wiring and the Lookahead
	// cap — the window histogram) and the fused blocks it executed (an
	// executor-dependent wall-time diagnostic, like Epochs).
	Windows []sim.ShardWindow `json:"windows,omitempty"`
	// TraceDropped counts trace events lost to the buffer cap (only
	// meaningful with tracing enabled; 0 means the trace is complete).
	TraceDropped uint64 `json:"trace_dropped,omitempty"`
}

// Snapshot captures the chip's current metrics under the unified schema.
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
		Epochs:   c.eng.Epochs(),
		Chip: SnapshotChip{
			SubRings:        c.Config.SubRings,
			CoresPerSub:     c.Config.CoresPerSub,
			Cores:           c.Config.Cores(),
			Threads:         c.Config.Threads(),
			MCs:             c.Config.MCs,
			Topology:        topo,
			Parallel:        c.Config.EffectiveParallel(),
			Executor:        c.Config.Executor,
			LinkLatency:     c.Config.LinkLatency,
			DRAMLatency:     c.Config.DRAMLatency,
			MainRingLatency: c.Config.MainRingLatency,
			SubRingLatency:  c.Config.SubRingLatency,
			CreditLatency:   c.Config.CreditLatency,
			ClockHz:         c.Config.ClockHz,
		},
		Metrics: c.Metrics(),
		Load:    c.LoadReport(),
	}
	if r := c.Sampled(); r != nil {
		s.Sampled = true
		s.SampleWindows = len(r.Windows)
		s.EstError = r.RelErr
		s.Cycles = r.EstCycles
		s.Seconds = c.Seconds(r.EstCycles)
	}
	if la := c.eng.Lookahead(); la > 1 {
		s.Chip.Lookahead = la
	}
	// The window report appears whenever some shard may run multi-cycle
	// blocks, so 1-cycle-link snapshots stay byte-identical to older
	// engine versions.
	if wr := c.eng.WindowReport(); len(wr) > 0 {
		var maxWin uint64
		for _, w := range wr {
			if w.Window > maxWin {
				maxWin = w.Window
			}
		}
		if maxWin > 1 {
			s.Windows = wr
		}
	}
	if c.prof != nil {
		s.Profile = c.prof.Partitions()
	}
	if c.trace != nil {
		s.TraceDropped = c.trace.Dropped()
	}
	return s
}

// WriteJSON renders the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
