package chaos

import (
	"errors"
	"fmt"

	"smarco/internal/card"
	"smarco/internal/chip"
	"smarco/internal/fault"
	"smarco/internal/sim"
	"smarco/internal/snapshot"
)

// Scenario is one seeded soak: a traffic stream, a card, and a fault
// schedule.
type Scenario struct {
	Name       string
	Processors int
	Traffic    TrafficConfig
	// Fault is the card's fault schedule (chip kills, PCIe degradation,
	// plus any chip-level faults).
	Fault    fault.Config
	Dispatch card.DispatchConfig
	// PCIe overrides the link model when non-nil.
	PCIe *card.PCIeConfig
	// Chip overrides the processor sizing when non-nil; the default is a
	// small 2-ring, 8-core build sized for CI soaks.
	Chip      *chip.Config
	MaxCycles uint64
}

// smallChip is the CI-sized processor.
func smallChip() chip.Config {
	cfg := chip.SmallConfig()
	cfg.SubRings = 2
	cfg.CoresPerSub = 4
	cfg.MCs = 1
	return cfg
}

func (sc Scenario) cardConfig() card.Config {
	ccfg := smallChip()
	if sc.Chip != nil {
		ccfg = *sc.Chip
	}
	ccfg.Fault = sc.Fault
	pcie := card.DefaultPCIe()
	if sc.PCIe != nil {
		pcie = *sc.PCIe
	}
	return card.Config{
		Processors: sc.Processors,
		Chip:       ccfg,
		PCIe:       pcie,
		Dispatch:   sc.Dispatch,
	}
}

// Result is one scenario run's outcome.
type Result struct {
	Scenario string
	Cycles   uint64
	// Fingerprint hashes the per-task final accounting (see
	// card.AccountingFingerprint); the cross-partition and cross-restore
	// comparison primitive.
	Fingerprint uint64
	Report      card.DispatchReport
	// Verified counts workloads whose memory output was checked bit-exact;
	// Unverifiable names workloads skipped because a non-idempotent task
	// was re-executed (see verify).
	Verified     int
	Unverifiable []string
}

// reexecSafe marks the kernels whose tasks may be re-executed from scratch
// over the debris of a partial first execution: pure read-only scans whose
// only writes are idempotent result stores (kmp, search). Everything else
// is corruptible — wordcount and kmeans accumulate into tables that assume
// a pristine zero image, rnc counts packets in memory, and terasort swaps
// in place (a kill between the two stores of a swap loses an element). A
// whole-chip kill has no undo log — the chip-level RAS rollback
// (internal/cpu/ras.go) dies with the chip — so the harness only
// functionally verifies what re-execution cannot have corrupted.
var reexecSafe = map[string]bool{
	"kmp": true, "search": true,
}

// ReexecSafe reports whether a kernel's output survives task re-execution
// after a mid-task chip loss (see reexecSafe). Tools use it to decide
// whether a recovered run is still bit-verifiable.
func ReexecSafe(kernel string) bool { return reexecSafe[kernel] }

// Run executes the scenario and asserts the structural invariants that hold
// for every schedule: exactly-once accounting with a reason on every
// non-completed task, and bit-exact output for all verifiable workloads.
func Run(sc Scenario) (*Result, error) {
	tr, c, err := sc.build()
	if err != nil {
		return nil, err
	}
	cycles, err := c.Run(tr.Tasks, sc.maxCycles())
	if err != nil {
		return nil, fmt.Errorf("chaos %s: %w", sc.Name, err)
	}
	return sc.finish(tr, c, cycles)
}

// RunWithRestore runs the scenario, but stops at checkpointAt cycles,
// checkpoints the card through the serialized snapshot encoding, restores
// into a freshly built card over a freshly generated (bit-identical)
// traffic image, and finishes there. Its Result must equal Run's exactly.
func RunWithRestore(sc Scenario, checkpointAt uint64) (*Result, error) {
	tr, c, err := sc.build()
	if err != nil {
		return nil, err
	}
	if err := c.Start(tr.Tasks); err != nil {
		return nil, fmt.Errorf("chaos %s: %w", sc.Name, err)
	}
	if _, err := c.Resume(checkpointAt); !errors.Is(err, sim.ErrBudget) {
		return nil, fmt.Errorf("chaos %s: expected budget stop at %d, got %w", sc.Name, checkpointAt, err)
	}
	blob := c.Checkpoint().Encode()

	tr2, c2, err := sc.build()
	if err != nil {
		return nil, err
	}
	f, err := snapshot.Decode(blob)
	if err != nil {
		return nil, fmt.Errorf("chaos %s: %w", sc.Name, err)
	}
	if err := c2.Restore(f, tr2.Tasks); err != nil {
		return nil, fmt.Errorf("chaos %s: %w", sc.Name, err)
	}
	cycles, err := c2.Resume(sc.maxCycles())
	if err != nil {
		return nil, fmt.Errorf("chaos %s: %w", sc.Name, err)
	}
	return sc.finish(tr2, c2, cycles)
}

func (sc Scenario) maxCycles() uint64 {
	if sc.MaxCycles > 0 {
		return sc.MaxCycles
	}
	return 200_000_000
}

func (sc Scenario) build() (*Traffic, *card.Card, error) {
	tr, err := Generate(sc.Traffic)
	if err != nil {
		return nil, nil, fmt.Errorf("chaos %s: %w", sc.Name, err)
	}
	c, err := card.New(sc.cardConfig(), tr.Store)
	if err != nil {
		return nil, nil, fmt.Errorf("chaos %s: %w", sc.Name, err)
	}
	return tr, c, nil
}

func (sc Scenario) finish(tr *Traffic, c *card.Card, cycles uint64) (*Result, error) {
	r := &Result{
		Scenario:    sc.Name,
		Cycles:      cycles,
		Fingerprint: c.AccountingFingerprint(),
		Report:      c.Report(),
	}
	if err := accounted(r.Report); err != nil {
		return nil, fmt.Errorf("chaos %s: %w", sc.Name, err)
	}
	if err := sc.verify(tr, c, r); err != nil {
		return nil, fmt.Errorf("chaos %s: %w", sc.Name, err)
	}
	return r, nil
}

// accounted is the exactly-once invariant: every submitted task resolved
// exactly once, every non-completion tagged with a known reason.
func accounted(r card.DispatchReport) error {
	if r.Completed+r.Abandoned+r.Shed != r.Submitted {
		return fmt.Errorf("accounting leak: %d completed + %d abandoned + %d shed != %d submitted",
			r.Completed, r.Abandoned, r.Shed, r.Submitted)
	}
	tagged := 0
	for reason, n := range r.Reasons {
		switch reason {
		case card.ReasonPCIeLost, card.ReasonRetries, card.ReasonBrownout, card.ReasonChipLost:
			tagged += n
		default:
			return fmt.Errorf("unknown resolution reason %q", reason)
		}
	}
	if tagged != r.Abandoned+r.Shed {
		return fmt.Errorf("%d abandoned+shed but %d tagged with reasons", r.Abandoned+r.Shed, tagged)
	}
	return nil
}

// verify checks workload memory outputs bit-exact wherever the fault
// schedule cannot have corrupted them: a workload is verifiable when all
// its tasks completed, and either none was re-executed or its kernel is
// re-execution-safe.
func (sc Scenario) verify(tr *Traffic, c *card.Card, r *Result) error {
	type wstat struct{ done, reexec, lost int }
	stats := make([]wstat, len(tr.Workloads))
	for _, ts := range c.TaskStates() {
		w := tr.Owner[ts.ID]
		switch {
		case ts.Completed:
			stats[w].done++
		default:
			stats[w].lost++
		}
		if ts.Attempts > 1 {
			stats[w].reexec++
		}
	}
	for i, w := range tr.Workloads {
		st := stats[i]
		if st.lost > 0 || (st.reexec > 0 && !reexecSafe[w.Name]) {
			r.Unverifiable = append(r.Unverifiable, w.Name)
			continue
		}
		if err := w.Check(); err != nil {
			return fmt.Errorf("%s output corrupt: %w", w.Name, err)
		}
		r.Verified++
	}
	return nil
}

// Throughput asserts the proportional-degradation contract: after losing
// one of two processors, the survivor must keep at least minFrac of the
// pre-kill completion rate.
func Throughput(r *Result, minFrac float64) error {
	rep := r.Report
	if rep.FirstKillCycle == 0 {
		return fmt.Errorf("no processor died in %s", r.Scenario)
	}
	if rep.PreKillPerK <= 0 || rep.PostKillPerK <= 0 {
		return fmt.Errorf("throughput not measurable: pre %g post %g", rep.PreKillPerK, rep.PostKillPerK)
	}
	if frac := rep.PostKillPerK / rep.PreKillPerK; frac < minFrac {
		return fmt.Errorf("post-kill throughput %.2f of pre-kill, want >= %.2f (pre %.3f post %.3f tasks/kcycle)",
			frac, minFrac, rep.PreKillPerK, rep.PostKillPerK)
	}
	return nil
}
