package experiments

import (
	"fmt"
	"time"

	"smarco/internal/chip"
	"smarco/internal/kernels"
)

// EngineBenchBudget caps each engine-throughput run. The reference workload
// finishes well inside it at every scale, so the budget only matters when
// the engine deadlocks.
const EngineBenchBudget = 50_000_000

// EngineBenchConfigs names the chip configurations the engine benchmarks
// sweep, smallest first.
var EngineBenchConfigs = []string{"small", "medium"}

// EngineChipConfig returns the chip configuration for an engine-throughput
// scale: "small" is the 4x4 test chip, "medium" an 8-sub-ring, 64-core chip
// large enough that per-cycle engine overhead dominates wall time, and
// "paper" the full 256-core chip of the paper (smarcobench -scale paper).
func EngineChipConfig(name string) (chip.Config, error) {
	switch name {
	case "small":
		return chip.SmallConfig(), nil
	case "medium":
		cfg := chip.DefaultConfig()
		cfg.SubRings = 8
		cfg.CoresPerSub = 8
		cfg.MCs = 4
		return cfg, nil
	case "paper":
		return chip.DefaultConfig(), nil
	}
	return chip.Config{}, fmt.Errorf("unknown engine bench config %q (want one of %v or paper)", name, EngineBenchConfigs)
}

// EngineBenchVariant selects the timing model an engine measurement runs
// under. The zero value is the classic machine: 1-cycle cross-shard links,
// a barrier every cycle. LinkLatency > 1 models slower links, which also
// licenses the engine to run multi-cycle conservative windows; Lookahead
// caps the window (0 = auto, the full window the links allow; 1 runs the
// same machine cycle-by-cycle). The per-class latencies override
// LinkLatency for one port class each (0 defers; see chip.Config), making
// the safe window per-shard.
type EngineBenchVariant struct {
	LinkLatency     uint64
	Lookahead       uint64
	DRAMLatency     uint64
	MainRingLatency uint64
	SubRingLatency  uint64
	CreditLatency   uint64
}

// Hetero reports whether the variant overrides any per-class latency.
func (v EngineBenchVariant) Hetero() bool {
	return v.DRAMLatency != 0 || v.MainRingLatency != 0 || v.SubRingLatency != 0 || v.CreditLatency != 0
}

// MachineKey names the simulated machine the variant defines — config
// plus every latency that shapes the timing model, excluding pure
// wall-time settings (Lookahead, the partition count). Runs with equal
// keys must report bit-identical simulated cycle counts.
func (v EngineBenchVariant) MachineKey(config string) string {
	key := fmt.Sprintf("%s/linklat=%d", config, max(v.LinkLatency, 1))
	if v.Hetero() {
		key = fmt.Sprintf("%s/dram=%d/mainring=%d/subring=%d/credit=%d",
			key, v.DRAMLatency, v.MainRingLatency, v.SubRingLatency, v.CreditLatency)
	}
	return key
}

// EngineBenchVariants is the timing-model A/B grid the engine benchmark
// sweeps: the classic 1-cycle-link machine for continuity with older
// entries; the 4-cycle-link machine twice — multi-cycle windows disabled
// (Lookahead 1) and the full conservative window (auto); then the
// reference heterogeneous profile, DRAM-8 / NoC-2 / credit-1 (memory links
// at 8 cycles, ring hops at 2, scheduler credits at 1), where the memory
// shards run 8-cycle blocks and the ring/sub-ring shards 2-cycle blocks
// while the scheduler steps cycle by cycle. Runs on the same machine
// (equal MachineKey) must report bit-identical simulated cycle counts;
// smarcobench -engine enforces that, so the sweep doubles as a
// conformance check.
var EngineBenchVariants = []EngineBenchVariant{
	{},
	{LinkLatency: 4, Lookahead: 1},
	{LinkLatency: 4},
	{DRAMLatency: 8, MainRingLatency: 2, SubRingLatency: 2, CreditLatency: 1},
}

// EngineRun is one engine-throughput measurement. CyclesPerSec is the
// engine's headline metric: simulated cycles per wall-clock second.
type EngineRun struct {
	Config string `json:"config"`
	// Parallel records chip.Config.EffectiveParallel: false for a run on
	// one partition, true for one partition per CPU.
	Parallel bool `json:"parallel"`
	// LinkLatency and Lookahead describe the timing-model variant; both
	// absent means the classic machine (1-cycle links, barrier every
	// cycle). Lookahead records the narrowest effective shard window the
	// engine settled on, not the requested cap. The per-class latencies
	// mirror the variant's heterogeneous profile (absent on uniform
	// machines), and MaxWindow records the widest per-shard window the
	// wiring allows (absent when it equals the narrowest). GlobalWindow is
	// record-only: it marks the rows of older entries that ran under the
	// engine's former global-min window switch, and no run sets it now;
	// it stays in the schema so that appending an entry to
	// BENCH_engine.json keeps those marks.
	LinkLatency     uint64  `json:"link_latency,omitempty"`
	Lookahead       uint64  `json:"lookahead,omitempty"`
	DRAMLatency     uint64  `json:"dram_latency,omitempty"`
	MainRingLatency uint64  `json:"mainring_latency,omitempty"`
	SubRingLatency  uint64  `json:"subring_latency,omitempty"`
	CreditLatency   uint64  `json:"credit_latency,omitempty"`
	GlobalWindow    bool    `json:"global_window,omitempty"`
	MaxWindow       uint64  `json:"max_window,omitempty"`
	Cycles          uint64  `json:"cycles"`
	WallSeconds     float64 `json:"wall_seconds"`
	CyclesPerSec    float64 `json:"cycles_per_sec"`
	// Handoffs is the share of the engine's dispatches it handed to its
	// workers (the rest ran inline on the caller; see
	// sim.Engine.Handoffs). Set on parallel rows whose run started
	// workers, absent elsewhere.
	Handoffs *float64 `json:"handoffs,omitempty"`
	// Sampled marks a sampled-mode run of the sampled-vs-detailed A/B:
	// Cycles is the SMARTS extrapolation (est_error its confidence
	// half-width) and Speedup is the paired full-detail run's wall time over
	// this run's. The paired detailed run carries SampledWorkload true so
	// the A/B rows are distinguishable from the throughput sweep, whose
	// workload differs.
	Sampled         bool    `json:"sampled,omitempty"`
	SampledWorkload bool    `json:"sampled_workload,omitempty"`
	EstError        float64 `json:"est_error,omitempty"`
	Speedup         float64 `json:"speedup,omitempty"`
}

// EngineBenchWorkload describes the fixed reference workload so snapshots
// from different engine versions stay comparable.
const EngineBenchWorkload = "kmp seed=1 tasks=2*cores scale=512 budget=50M"

// MeasureEngine runs the reference workload (kmp, two tasks per core,
// scale 512, seed 1 — memory-bound and chip-wide, so every component class
// participates) on the named configuration at the given partition count
// (chip.Config.Partitions: 1, or 0 for one per CPU) and times the
// simulation loop. The simulated cycle count is deterministic; only wall
// time varies.
func MeasureEngine(config string, partitions int) (EngineRun, error) {
	run, _, err := MeasureEngineSnapshot(config, partitions)
	return run, err
}

// MeasureEngineVariant is MeasureEngineSnapshot on an explicit timing-model
// variant (link latency + lookahead cap).
func MeasureEngineVariant(config string, partitions int, v EngineBenchVariant) (EngineRun, chip.Snapshot, error) {
	return measureEngine(config, partitions, v)
}

// MeasureEngineVariantBest repeats the measurement and keeps the run with
// the highest cycles-per-second — standard practice for wall-clock
// benchmarks on shared hosts, where a single run can absorb tens of
// percent of scheduler noise. Simulated cycle counts must be bit-identical
// across repeats (they are pure functions of the machine); a mismatch is
// reported as an error, so the repeats double as a determinism check.
func MeasureEngineVariantBest(config string, partitions int, v EngineBenchVariant, repeats int) (EngineRun, chip.Snapshot, error) {
	if repeats < 1 {
		repeats = 1
	}
	var best EngineRun
	var bestSnap chip.Snapshot
	for i := 0; i < repeats; i++ {
		run, snap, err := measureEngine(config, partitions, v)
		if err != nil {
			return EngineRun{}, chip.Snapshot{}, err
		}
		if i > 0 && run.Cycles != best.Cycles {
			return EngineRun{}, chip.Snapshot{}, fmt.Errorf(
				"engine bench %s: repeat %d simulated %d cycles, repeat 0 %d — nondeterminism",
				config, i, run.Cycles, best.Cycles)
		}
		if i == 0 || run.CyclesPerSec > best.CyclesPerSec {
			best, bestSnap = run, snap
		}
	}
	return best, bestSnap, nil
}

// MeasureEngineSnapshot is MeasureEngine plus the run's unified JSON
// metrics snapshot (see chip.Snapshot). It deliberately does NOT enable
// the engine's wall-time profiler: CyclesPerSec is the headline
// throughput number tracked in BENCH_engine.json, and profiling taxes
// the hot loop with two clock reads per partition per phase. Attribution
// profiles come from runs that opt in (smarcosim -profile).
func MeasureEngineSnapshot(config string, partitions int) (EngineRun, chip.Snapshot, error) {
	return measureEngine(config, partitions, EngineBenchVariant{})
}

func measureEngine(config string, partitions int, v EngineBenchVariant) (EngineRun, chip.Snapshot, error) {
	cfg, err := EngineChipConfig(config)
	if err != nil {
		return EngineRun{}, chip.Snapshot{}, err
	}
	cfg.Partitions = partitions
	cfg.LinkLatency = v.LinkLatency
	cfg.Lookahead = v.Lookahead
	cfg.DRAMLatency = v.DRAMLatency
	cfg.MainRingLatency = v.MainRingLatency
	cfg.SubRingLatency = v.SubRingLatency
	cfg.CreditLatency = v.CreditLatency
	w := kernels.MustNew("kmp", kernels.Config{Seed: 1, Tasks: 2 * cfg.Cores(), Scale: 512})
	c, err := chip.Build(cfg, w.Mem)
	if err != nil {
		return EngineRun{}, chip.Snapshot{}, err
	}
	c.Submit(w.Tasks)
	start := time.Now()
	cycles, err := c.Run(EngineBenchBudget)
	wall := time.Since(start).Seconds()
	if err != nil {
		return EngineRun{}, chip.Snapshot{}, err
	}
	if err := w.Check(); err != nil {
		return EngineRun{}, chip.Snapshot{}, fmt.Errorf("engine bench %s: %w", config, err)
	}
	run := EngineRun{
		Config:          config,
		Parallel:        cfg.EffectiveParallel(),
		LinkLatency:     v.LinkLatency,
		DRAMLatency:     v.DRAMLatency,
		MainRingLatency: v.MainRingLatency,
		SubRingLatency:  v.SubRingLatency,
		CreditLatency:   v.CreditLatency,
		Cycles:          cycles,
		WallSeconds:     wall,
		CyclesPerSec:    float64(cycles) / wall,
	}
	if v.LinkLatency > 1 || v.Lookahead > 1 || v.Hetero() {
		run.Lookahead = c.Lookahead() // effective window, not the requested cap
	}
	if h, d := c.Handoffs(); d > 0 {
		share := float64(h) / float64(d)
		run.Handoffs = &share
	}
	var maxWin uint64
	for _, w := range c.WindowReport() {
		if w.Window > maxWin {
			maxWin = w.Window
		}
	}
	if maxWin > c.Lookahead() {
		run.MaxWindow = maxWin
	}
	label := fmt.Sprintf("engine %s parallel=%v", config, run.Parallel)
	if v.LinkLatency != 0 || v.Lookahead != 0 {
		label = fmt.Sprintf("%s linklat=%d lookahead=%d", label, v.LinkLatency, v.Lookahead)
	}
	if v.Hetero() {
		label = fmt.Sprintf("%s dram=%d mainring=%d subring=%d credit=%d",
			label, v.DRAMLatency, v.MainRingLatency, v.SubRingLatency, v.CreditLatency)
	}
	return run, c.Snapshot(label, EngineBenchWorkload), nil
}
