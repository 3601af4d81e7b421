// Package card models SmarCo's system integration (§1, §4.4): the
// processor ships as a PCIe accelerator card holding one or two SmarCo
// chips. The host CPU submits task batches over PCIe; the card's dispatch
// logic splits them across its processors. The PCIe link adds submission
// latency and caps command bandwidth — the integration costs a downstream
// user of the accelerator actually pays.
//
// The card layer is also where rack-level fault tolerance lives (DESIGN.md
// §11): the dispatcher detects dead processors through the engine watchdog
// and scheduled chip kills, re-submits their in-flight tasks to survivors
// under per-task retry budgets with capped exponential backoff, sheds
// low-priority work under brownout, and accounts for every submitted task
// exactly once as completed, abandoned-with-reason, or shed-with-reason.
package card

import (
	"fmt"

	"smarco/internal/chip"
	"smarco/internal/fault"
	"smarco/internal/mem"
)

// PCIeConfig models the host link.
type PCIeConfig struct {
	// LatencyCycles is the one-way submission latency in chip cycles
	// (PCIe round trips are ~1 µs ≈ 1500 cycles at 1.5 GHz).
	LatencyCycles uint64
	// TasksPerKCycle caps the command rate over the link.
	TasksPerKCycle int
}

// DefaultPCIe is a Gen3 x8-class link.
func DefaultPCIe() PCIeConfig {
	return PCIeConfig{LatencyCycles: 1500, TasksPerKCycle: 64}
}

// Dispatcher defaults. SliceCycles trades decision latency against control
// overhead; DetectCycles models the host noticing a dead chip (health
// polling over PCIe) rather than clairvoyant instant failover.
const (
	DefaultSliceCycles  = 2000
	DefaultDetectCycles = 1000
	DefaultTaskRetries  = 2
)

// DispatchConfig tunes the card's fault-tolerant dispatcher. The zero value
// selects the defaults above with timeouts and brownout disabled.
type DispatchConfig struct {
	// TaskRetries is how many re-submissions a task gets after its first
	// dispatch (following a chip death or a submission timeout) before it
	// is abandoned. 0 selects DefaultTaskRetries; negative means none.
	TaskRetries int
	// SubmitTimeout re-dispatches a submission that has produced no
	// completion after this many cycles (0 = no timeout). A stale
	// completion racing its replacement is counted as a duplicate; the
	// first completion harvested wins.
	SubmitTimeout uint64
	// BrownoutDepth sheds normal-priority re-submissions whenever the
	// least-loaded survivor already holds this many unresolved tasks
	// (0 = never shed). Real-time tasks are never shed.
	BrownoutDepth int
	// SliceCycles is the dispatcher's control-loop granularity: processors
	// advance in lockstep slices on an absolute cycle grid and all
	// detection/migration decisions happen at grid boundaries, which keeps
	// runs bit-identical across partition counts and across restore-from-
	// checkpoint. 0 selects DefaultSliceCycles.
	SliceCycles uint64
	// DetectCycles is the latency between a processor dying and the
	// dispatcher acting on it. 0 selects DefaultDetectCycles.
	DetectCycles uint64
}

// withDefaults resolves the zero values.
func (dc DispatchConfig) withDefaults() DispatchConfig {
	if dc.TaskRetries == 0 {
		dc.TaskRetries = DefaultTaskRetries
	}
	if dc.TaskRetries < 0 {
		dc.TaskRetries = 0
	}
	if dc.SliceCycles == 0 {
		dc.SliceCycles = DefaultSliceCycles
	}
	if dc.DetectCycles == 0 {
		dc.DetectCycles = DefaultDetectCycles
	}
	return dc
}

// Config describes a card.
type Config struct {
	// Processors is 1 or 2 (the paper built both, Fig. 25).
	Processors int
	Chip       chip.Config
	PCIe       PCIeConfig
	Dispatch   DispatchConfig
}

// Card is a PCIe accelerator card with one or two SmarCo processors.
// Each processor has its own memory channels (its own backing store view);
// the host partitions work between them.
type Card struct {
	cfg   Config
	chips []*chip.Chip
	// inj decides the card-scoped faults (PCIe transfer faults, whole-chip
	// kills); nil when none are configured. It is distinct from the chips'
	// own injectors — separate hash domains keep the fault streams
	// uncorrelated even though they share one fault.Config.
	inj  *fault.Injector
	disp *dispatcher

	// SliceHook, when non-nil, runs at every dispatcher slice boundary
	// with the card clock; the chips sit at a cycle barrier, so the hook
	// may checkpoint the card (the chaos harness does).
	SliceHook func(now uint64)
	// Interrupt, when non-nil, is polled at slice boundaries; returning
	// true makes Resume stop at that barrier with ErrInterrupted — the
	// graceful-shutdown path, after which the card is checkpointable.
	Interrupt func() bool
}

// New builds a card. Every processor shares the provided memory image
// (the host has staged the dataset into card memory before submission).
func New(cfg Config, store *mem.Sparse) (*Card, error) {
	if cfg.Processors < 1 || cfg.Processors > 2 {
		return nil, fmt.Errorf("card: %d processors unsupported (build 1 or 2)", cfg.Processors)
	}
	cfg.Dispatch = cfg.Dispatch.withDefaults()
	c := &Card{cfg: cfg}
	if f := cfg.Chip.Fault; f.ChipKills > 0 || f.PCIeFaultRate > 0 {
		inj, err := fault.NewInjector(f)
		if err != nil {
			return nil, fmt.Errorf("card: %w", err)
		}
		c.inj = inj
	}
	for i := 0; i < cfg.Processors; i++ {
		ccfg := cfg.Chip
		// Decorrelate the processors' chip-level fault streams: two chips
		// on one card must not suffer bit-identical fault histories.
		ccfg.Fault.Seed ^= uint64(i) * 0x9e3779b97f4a7c15
		ch, err := chip.Build(ccfg, store)
		if err != nil {
			return nil, fmt.Errorf("card: processor %d: %w", i, err)
		}
		c.chips = append(c.chips, ch)
	}
	return c, nil
}

// MustNew is New for statically known-good configurations.
func MustNew(cfg Config, store *mem.Sparse) *Card {
	c, err := New(cfg, store)
	if err != nil {
		panic(err)
	}
	return c
}

// Chips exposes the card's processors for metric inspection.
func (c *Card) Chips() []*chip.Chip { return c.chips }

// FaultStats exposes the card-scoped fault counters (nil when no chip-kill
// or PCIe faults are configured).
func (c *Card) FaultStats() *fault.Stats {
	if c.inj == nil {
		return nil
	}
	return &c.inj.Stats
}

// Seconds converts card cycles to wall time.
func (c *Card) Seconds(cycles uint64) float64 {
	return float64(cycles) / c.cfg.Chip.ClockHz
}
