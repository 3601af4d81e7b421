// Package fault provides the deterministic fault-injection and RAS
// (reliability / availability / serviceability) layer of the simulator.
//
// Every fault decision is a pure hash of (seed, site, cycle, local sequence
// number) — splitmix64-style mixing, the same generator internal/sim/rng.go
// uses — so a run's fault history is a function of its configuration alone.
// No shared mutable RNG state exists, which is what keeps runs bit-identical
// at every engine partition count: each
// component derives its own fault stream from values it already owns
// deterministically (its port-ordering key and its private event counters).
//
// Three fault classes are modelled:
//
//   - Transient NoC link faults: a traversal corrupts or drops the packet.
//     Corruption is detected at the receiver by a checksum bit and NAKed;
//     a drop is detected by the sender's timeout. Either way the sending
//     router retransmits with bounded exponential backoff, all in simulated
//     cycles (see internal/noc).
//   - DRAM bit flips with a SECDED ECC model: single-bit flips are corrected
//     (counted, data unharmed), double-bit flips are detected but
//     uncorrectable — the controller refuses the data and re-reads the row
//     (see internal/dram).
//   - Hard core failures: at a configured cycle a set of cores dies. Each
//     dead core drains in-flight traffic, rolls back the partial memory
//     effects of its unfinished tasks from an undo log, and hands the tasks
//     back to its sub-scheduler for re-dispatch onto surviving cores (see
//     internal/cpu and internal/sched).
package fault

import (
	"fmt"
	"sync/atomic"
)

// Hash-domain separators so the same (site, cycle, seq) triple never
// produces correlated decisions across fault classes.
const (
	domainLink uint64 = iota + 1
	domainLinkKind
	domainDRAM
	domainDRAMDouble
	domainKill
	domainPCIe
	domainPCIeKind
	domainChipKill
)

// DefaultKillCycle is when hard core failures strike if the configuration
// does not say otherwise: late enough that victims have accepted work (so
// the drain/rollback/migration machinery is actually exercised), early
// enough that small test runs still hit it.
const DefaultKillCycle = 2000

// DefaultMaxRetransmit bounds link-level retransmission attempts per packet.
const DefaultMaxRetransmit = 16

// DefaultChipKillCycle is when whole-chip failures strike if the
// configuration does not say otherwise. It sits past the PCIe submission
// window (~1500 cycles) so the victim chip has accepted work and the card's
// drain/migrate machinery is actually exercised.
const DefaultChipKillCycle = 6000

// Config describes a deterministic fault scenario.
type Config struct {
	// Seed selects the fault history. Same seed + same chip configuration
	// => same faults, serial or parallel.
	Seed uint64
	// LinkFaultRate is the probability that one link traversal corrupts or
	// drops the packet. [0, 1].
	LinkFaultRate float64
	// DRAMFlipRate is the per-64-bit-word probability that a DRAM array
	// read observes a bit flip. [0, 1].
	DRAMFlipRate float64
	// KillCores is how many cores suffer a hard failure.
	KillCores int
	// KillCycle is the cycle the failures strike (0 = DefaultKillCycle).
	KillCycle uint64
	// MaxRetransmit bounds link retransmissions per packet before the
	// packet is declared lost (0 = DefaultMaxRetransmit).
	MaxRetransmit int

	// Chip-scoped faults, interpreted by the card layer (internal/card);
	// individual chips ignore them.

	// ChipKills is how many whole chips on a card suffer a hard failure.
	// Victims are a seeded permutation; at least one chip survives.
	ChipKills int
	// ChipKillCycle is the cycle chip failures strike
	// (0 = DefaultChipKillCycle).
	ChipKillCycle uint64
	// PCIeFaultRate is the per-transfer probability that a task submission
	// over the PCIe link is corrupted (detected by the card's checksum and
	// NAKed) or dropped (detected by host timeout). Either way the host
	// retransmits with capped exponential backoff, mirroring the NoC
	// retransmit policy. [0, 1].
	PCIeFaultRate float64
	// PCIeFaultCycle is the cycle from which PCIeFaultRate applies
	// (0 = from the start), for "degrade the link at cycle K" schedules.
	PCIeFaultCycle uint64
}

// Enabled reports whether the configuration injects any fault at all.
func (c Config) Enabled() bool {
	return c.LinkFaultRate > 0 || c.DRAMFlipRate > 0 || c.KillCores > 0 ||
		c.ChipKills > 0 || c.PCIeFaultRate > 0
}

// Validate rejects out-of-range rates and counts.
func (c Config) Validate() error {
	if c.LinkFaultRate < 0 || c.LinkFaultRate > 1 {
		return fmt.Errorf("fault: link fault rate %g outside [0, 1]", c.LinkFaultRate)
	}
	if c.DRAMFlipRate < 0 || c.DRAMFlipRate > 1 {
		return fmt.Errorf("fault: dram flip rate %g outside [0, 1]", c.DRAMFlipRate)
	}
	if c.KillCores < 0 {
		return fmt.Errorf("fault: negative kill-cores %d", c.KillCores)
	}
	if c.MaxRetransmit < 0 {
		return fmt.Errorf("fault: negative max-retransmit %d", c.MaxRetransmit)
	}
	if c.ChipKills < 0 {
		return fmt.Errorf("fault: negative chip-kills %d", c.ChipKills)
	}
	if c.PCIeFaultRate < 0 || c.PCIeFaultRate > 1 {
		return fmt.Errorf("fault: pcie fault rate %g outside [0, 1]", c.PCIeFaultRate)
	}
	return nil
}

// Stats counts injected faults and recovery actions. Counters are atomic
// because components in different engine partitions share one Injector;
// additions commute, so the totals are deterministic even though the
// increment interleaving is not.
type Stats struct {
	LinkCorrupt     atomic.Uint64 // traversals that corrupted the packet (NAKed)
	LinkDropped     atomic.Uint64 // traversals that dropped the packet (timeout)
	Retransmits     atomic.Uint64 // link-level retransmission attempts
	PacketsLost     atomic.Uint64 // packets abandoned after MaxRetransmit
	ECCCorrected    atomic.Uint64 // single-bit flips corrected by SECDED
	ECCUncorrected  atomic.Uint64 // double-bit flips detected (data refused, re-read)
	CoreKills       atomic.Uint64 // hard core failures delivered
	TasksMigrated   atomic.Uint64 // in-flight tasks re-queued onto surviving cores
	RollbackWrites  atomic.Uint64 // undo-log write packets issued by dying cores
	ForeignComplete atomic.Uint64 // completions from cores outside their sub-ring
	PCIeCorrupt     atomic.Uint64 // PCIe transfers corrupted (NAKed, retransmitted)
	PCIeDropped     atomic.Uint64 // PCIe transfers dropped (timeout, retransmitted)
	PCIeRetransmits atomic.Uint64 // PCIe retransmission attempts
	PCIeLost        atomic.Uint64 // submissions abandoned after MaxRetransmit
	ChipKills       atomic.Uint64 // whole-chip failures delivered
}

// Injector decides faults. All methods are safe on a nil receiver (no
// faults), so components can be wired unconditionally.
type Injector struct {
	cfg   Config
	Stats Stats
}

// NewInjector validates cfg and builds an injector.
func NewInjector(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.KillCycle == 0 {
		cfg.KillCycle = DefaultKillCycle
	}
	if cfg.ChipKillCycle == 0 {
		cfg.ChipKillCycle = DefaultChipKillCycle
	}
	if cfg.MaxRetransmit == 0 {
		cfg.MaxRetransmit = DefaultMaxRetransmit
	}
	return &Injector{cfg: cfg}, nil
}

// Config returns the injector's (normalized) configuration.
func (i *Injector) Config() Config {
	if i == nil {
		return Config{}
	}
	return i.cfg
}

// RASEnabled reports whether core-failure recovery is active, which gates
// the undo-log capture on write acknowledgements.
func (i *Injector) RASEnabled() bool { return i != nil && i.cfg.KillCores > 0 }

// MaxRetransmit returns the per-packet retransmission budget.
func (i *Injector) MaxRetransmit() int {
	if i == nil {
		return DefaultMaxRetransmit
	}
	return i.cfg.MaxRetransmit
}

// mix is the splitmix64 finalizer over a keyed combination of the inputs.
// Distinct odd multipliers keep the four words from cancelling.
func (i *Injector) mix(domain, a, b, c uint64) uint64 {
	z := i.cfg.Seed ^ domain*0x9e3779b97f4a7c15 ^ a*0xbf58476d1ce4e5b9 ^
		b*0x94d049bb133111eb ^ c*0xd6e8feb86659fd93
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// roll returns a deterministic pseudo-uniform float64 in [0, 1) for the
// given site/cycle/sequence triple within a domain.
func (i *Injector) roll(domain, site, cycle, seq uint64) float64 {
	return float64(i.mix(domain, site, cycle, seq)>>11) / (1 << 53)
}

// LinkFault decides whether one link traversal faults. site is the sending
// router's globally unique port key, seq the router's private traversal
// counter. dropped distinguishes a silent drop (timeout detection) from a
// corruption (checksum/NAK detection).
func (i *Injector) LinkFault(site, cycle, seq uint64) (faulted, dropped bool) {
	if i == nil || i.cfg.LinkFaultRate <= 0 {
		return false, false
	}
	if i.roll(domainLink, site, cycle, seq) >= i.cfg.LinkFaultRate {
		return false, false
	}
	// A faulted traversal corrupts the packet 3 out of 4 times and drops
	// it outright otherwise.
	dropped = i.mix(domainLinkKind, site, cycle, seq)&3 == 0
	if dropped {
		i.Stats.LinkDropped.Add(1)
	} else {
		i.Stats.LinkCorrupt.Add(1)
	}
	return true, dropped
}

// RetryDelay returns the simulated-cycle delay before a retransmission:
// detection latency (a NAK round-trip for a corruption, a coarser timeout
// for a silent drop) plus capped exponential backoff.
func RetryDelay(attempt int, dropped bool) uint64 {
	detect := uint64(4) // NAK round-trip
	if dropped {
		detect = 32 // sender-side timeout
	}
	if attempt > 6 {
		attempt = 6
	}
	return detect + uint64(1)<<uint(attempt)
}

// DRAMFault decides the ECC outcome of one DRAM read of `words` 64-bit
// words. site is the controller's port key, seq its private service
// counter. Exactly one of single/double may be true.
func (i *Injector) DRAMFault(site, seq uint64, words int) (single, double bool) {
	if i == nil || i.cfg.DRAMFlipRate <= 0 || words <= 0 {
		return false, false
	}
	// Per-access event probability: 1 - (1-p)^words ≈ p*words for the
	// small rates this knob is for; computed per word to stay exact.
	hit := false
	for w := 0; w < words; w++ {
		if i.roll(domainDRAM, site, seq, uint64(w)) < i.cfg.DRAMFlipRate {
			hit = true
			break
		}
	}
	if !hit {
		return false, false
	}
	// Given a flip event, a second independent flip in the same word makes
	// it uncorrectable. SECDED corrects singles; model doubles as a small
	// fixed fraction of flip events (two independent flips colliding).
	if i.mix(domainDRAMDouble, site, seq, 0)&7 == 0 {
		i.Stats.ECCUncorrected.Add(1)
		return false, true
	}
	i.Stats.ECCCorrected.Add(1)
	return true, false
}

// KillCycle returns the cycle hard core failures strike.
func (i *Injector) KillCycle() uint64 {
	if i == nil {
		return 0
	}
	return i.cfg.KillCycle
}

// KillSet returns the indices of the cores that fail, chosen by a seeded
// permutation of [0, totalCores). At least one core per sub-ring must
// survive for graceful degradation, which is the caller's concern; this
// just picks victims reproducibly.
func (i *Injector) KillSet(totalCores int) []int {
	if i == nil || i.cfg.KillCores <= 0 || totalCores <= 0 {
		return nil
	}
	n := i.cfg.KillCores
	if n >= totalCores {
		n = totalCores - 1 // leave at least one survivor chip-wide
	}
	// Fisher–Yates over the identity permutation, keyed off the seed via
	// the same mixer as every other decision.
	perm := make([]int, totalCores)
	for k := range perm {
		perm[k] = k
	}
	for k := totalCores - 1; k > 0; k-- {
		j := int(i.mix(domainKill, uint64(k), 0, 0) % uint64(k+1))
		perm[k], perm[j] = perm[j], perm[k]
	}
	return perm[:n]
}

// PCIeFault decides whether one PCIe task transfer faults. site is the
// target chip index, cycle the submission cycle on the card clock, seq the
// submitter's private transfer counter. dropped distinguishes a silent drop
// (host-timeout detection) from a corruption (checksum/NAK detection) —
// the same split the NoC link model makes, so RetryDelay applies unchanged.
// Inactive before PCIeFaultCycle, which is how degradation schedules say
// "the link goes bad at cycle K".
func (i *Injector) PCIeFault(site, cycle, seq uint64) (faulted, dropped bool) {
	if i == nil || i.cfg.PCIeFaultRate <= 0 || cycle < i.cfg.PCIeFaultCycle {
		return false, false
	}
	if i.roll(domainPCIe, site, cycle, seq) >= i.cfg.PCIeFaultRate {
		return false, false
	}
	dropped = i.mix(domainPCIeKind, site, cycle, seq)&3 == 0
	if dropped {
		i.Stats.PCIeDropped.Add(1)
	} else {
		i.Stats.PCIeCorrupt.Add(1)
	}
	return true, dropped
}

// ChipKillCycle returns the cycle whole-chip failures strike.
func (i *Injector) ChipKillCycle() uint64 {
	if i == nil {
		return 0
	}
	return i.cfg.ChipKillCycle
}

// ChipKillSet returns the indices of the chips on a card that hard-fail,
// chosen by a seeded permutation of [0, totalChips). At least one chip
// always survives — a card with every processor dead has nothing left to
// measure — so a single-chip card never loses its only processor.
func (i *Injector) ChipKillSet(totalChips int) []int {
	if i == nil || i.cfg.ChipKills <= 0 || totalChips <= 1 {
		return nil
	}
	n := i.cfg.ChipKills
	if n >= totalChips {
		n = totalChips - 1
	}
	perm := make([]int, totalChips)
	for k := range perm {
		perm[k] = k
	}
	for k := totalChips - 1; k > 0; k-- {
		j := int(i.mix(domainChipKill, uint64(k), 0, 0) % uint64(k+1))
		perm[k], perm[j] = perm[j], perm[k]
	}
	return perm[:n]
}
