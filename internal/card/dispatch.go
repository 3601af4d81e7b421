// The card dispatcher: deterministic chip-kill recovery and cross-chip
// migration (DESIGN.md §11).
//
// Processors advance in lockstep slices on an absolute cycle grid. At each
// grid boundary the dispatcher harvests completion records from every
// sub-scheduler, detects processors that died since the last boundary
// (scheduled chip kills, or engine watchdog/panic errors surfaced by the
// chip's Run), and re-dispatches orphaned and timed-out submissions to the
// least-loaded survivor under a per-task retry budget, host-side capped
// exponential backoff, and the PCIe retransmit model. Every decision is a
// function of partition-invariant chip histories at grid boundaries plus
// pure fault-hash rolls, so a run is bit-identical at every engine
// partition count and across restore-from-checkpoint.
package card

import (
	"errors"
	"fmt"
	"sort"

	"smarco/internal/fault"
	"smarco/internal/kernels"
	"smarco/internal/sim"
	"smarco/internal/stats"
)

// ErrInterrupted is returned by Resume when the Interrupt hook requested a
// stop; the card sits at a cycle barrier and may be checkpointed.
var ErrInterrupted = errors.New("card: interrupted")

type taskStatus uint8

const (
	statusPending taskStatus = iota
	statusCompleted
	statusAbandoned
	statusShed
)

// Abandon/shed reasons reported through DispatchReport and asserted on by
// the chaos harness. Every non-completed task carries exactly one.
const (
	ReasonPCIeLost = "pcie-lost" // submission lost after MaxRetransmit link retries
	ReasonRetries  = "retries"   // per-task retry budget exhausted
	ReasonBrownout = "brownout"  // shed: survivors over the brownout depth
	ReasonChipLost = "chip-lost" // no surviving processor to take the task
)

// taskState is the dispatcher's accounting record for one submitted task.
type taskState struct {
	task      kernels.Task
	arrival   uint64 // the task's own release cycle at Start, before PCIe pacing
	chip      int    // current assignment (-1 before first submission)
	attempts  int    // submissions so far
	status    taskStatus
	reason    string // set for abandoned/shed
	submitted uint64 // card cycle of the latest submission
	resolved  uint64 // completion cycle, or the decision cycle for abandoned/shed
	core      int    // completing core (chip-local ID), -1 otherwise
}

// dispatcher holds the card's mutable fault-tolerance state. It is fully
// checkpointable (see save.go).
type dispatcher struct {
	tasks []*taskState
	byID  map[int]int // task ID -> index into tasks

	now      uint64 // card clock: the last slice boundary reached
	final    uint64 // completion cycle of the whole run (valid when finished)
	finished bool

	// Per processor:
	history     [][]int // task indices ever submitted, in submission order (restore replay)
	seen        [][]int // per sub-scheduler: results already harvested
	outstanding []int   // unresolved tasks currently assigned (recomputed each grid boundary)
	dead        []bool
	deadAt      []uint64
	detected    []bool
	procErr     []error // engine error for chips that wedged/panicked

	victims   map[int]bool // scheduled chip-kill victims
	killCycle uint64

	latency    stats.StreamHist // arrival -> completion, card cycles
	resubmits  uint64
	duplicates uint64 // completions for already-resolved tasks (at-least-once execution)
	timeouts   uint64
	recovered  uint64 // completions that needed at least one re-submission
}

func (d *dispatcher) unresolved() int {
	n := 0
	for _, ts := range d.tasks {
		if ts.status == statusPending {
			n++
		}
	}
	return n
}

// newDispatcher sizes the state for the card's processors and task list.
func (c *Card) newDispatcher(tasks []kernels.Task) (*dispatcher, error) {
	n := len(c.chips)
	d := &dispatcher{
		byID:        make(map[int]int, len(tasks)),
		history:     make([][]int, n),
		seen:        make([][]int, n),
		outstanding: make([]int, n),
		dead:        make([]bool, n),
		deadAt:      make([]uint64, n),
		detected:    make([]bool, n),
		procErr:     make([]error, n),
		victims:     map[int]bool{},
	}
	for i, ch := range c.chips {
		d.seen[i] = make([]int, len(ch.Subs))
	}
	for idx, t := range tasks {
		if _, dup := d.byID[t.ID]; dup {
			return nil, fmt.Errorf("card: duplicate task ID %d", t.ID)
		}
		d.byID[t.ID] = idx
		d.tasks = append(d.tasks, &taskState{task: t, arrival: t.ReleaseCycle, chip: -1, core: -1})
	}
	if c.inj != nil {
		for _, v := range c.inj.ChipKillSet(n) {
			d.victims[v] = true
		}
		d.killCycle = c.inj.ChipKillCycle()
	}
	return d, nil
}

// Start submits the tasks over PCIe (round-robin across processors, paced
// by the link) and arms the dispatcher. Use Run unless the harness needs to
// interleave checkpoints or interrupts between Resume calls.
func (c *Card) Start(tasks []kernels.Task) error {
	if c.disp != nil {
		return errors.New("card: already started")
	}
	d, err := c.newDispatcher(tasks)
	if err != nil {
		return err
	}
	c.disp = d
	batches := make([][]kernels.Task, len(c.chips))
	counts := make([]int, len(c.chips))
	rate := max(c.cfg.PCIe.TasksPerKCycle, 1)
	for idx, ts := range d.tasks {
		p := idx % len(c.chips)
		k := counts[p]
		counts[p]++
		// xfer is when the host pushes this command onto the link under
		// the TasksPerKCycle pacing — the cycle PCIe degradation gates on.
		xfer := uint64(k/rate) * 1000
		extra, lost := c.pcieTransfer(p, xfer, ts.task.ID, 0)
		if lost {
			ts.status = statusAbandoned
			ts.reason = ReasonPCIeLost
			ts.resolved = xfer + extra
			continue
		}
		t := ts.task
		if rel := c.cfg.PCIe.LatencyCycles + xfer + extra; t.ReleaseCycle < rel {
			t.ReleaseCycle = rel
		}
		// The timeout clock starts when the chip can first act on the task
		// (PCIe pacing + latency, or its own arrival, whichever is later) —
		// not at cycle 0, which would spuriously time out late-paced or
		// late-arriving tasks in a fault-free run.
		ts.chip, ts.attempts, ts.submitted = p, 1, t.ReleaseCycle
		d.outstanding[p]++
		d.history[p] = append(d.history[p], idx)
		batches[p] = append(batches[p], t)
	}
	for p, b := range batches {
		if len(b) > 0 {
			c.chips[p].Submit(b)
		}
	}
	return nil
}

// pcieTransfer models one task submission crossing the host link, mirroring
// the NoC retransmit policy: a corrupted transfer is NAKed, a dropped one
// detected by host timeout, and either is retransmitted with capped
// exponential backoff until MaxRetransmit, after which the submission is
// declared lost. Returns the delay added beyond the base latency.
func (c *Card) pcieTransfer(chipIdx int, cycle uint64, taskID, taskAttempt int) (extra uint64, lost bool) {
	if c.inj == nil {
		return 0, false
	}
	budget := c.inj.MaxRetransmit()
	for a := 0; ; a++ {
		// Wide bit fields keep the per-transfer fault draws independent:
		// task, attempt, and retransmit never collide below 2^16 retries.
		seq := uint64(taskID)<<32 | uint64(taskAttempt)<<16 | uint64(a)
		faulted, dropped := c.inj.PCIeFault(uint64(chipIdx), cycle, seq)
		if !faulted {
			return extra, false
		}
		if a >= budget {
			c.inj.Stats.PCIeLost.Add(1)
			return extra, true
		}
		c.inj.Stats.PCIeRetransmits.Add(1)
		extra += fault.RetryDelay(a, dropped)
	}
}

// Run submits the tasks and drives the card until every one of them is
// resolved (completed, abandoned, or shed), or maxCycles elapse. It returns
// the completion cycle on the card clock, including the PCIe hop that
// reports completion to the host.
//
// A processor failure mid-run is not an error as long as a survivor
// remains: its tasks migrate and the failure is reported through Report and
// Snapshot. When every processor is gone, Run returns a joined error naming
// each failed processor and its cause.
func (c *Card) Run(tasks []kernels.Task, maxCycles uint64) (uint64, error) {
	if err := c.Start(tasks); err != nil {
		return 0, err
	}
	return c.Resume(maxCycles)
}

// Resume continues a started (or restored) card until resolution or the
// absolute cycle budget. After a budget or interrupt return the dispatcher
// state is intact: the card may be checkpointed or resumed with a larger
// budget.
func (c *Card) Resume(maxCycles uint64) (uint64, error) {
	d := c.disp
	if d == nil {
		return 0, errors.New("card: Resume before Run, Start, or Restore")
	}
	slice := c.cfg.Dispatch.SliceCycles
	for {
		// Decisions happen only on the absolute slice grid, so a run
		// restored from a checkpoint taken at an off-grid budget stop
		// re-aligns with the uninterrupted run's decision cycles.
		if d.now%slice == 0 {
			c.harvest()
			c.redispatch()
			if c.aliveCount() == 0 {
				return d.now, c.deadCardErr()
			}
			if d.unresolved() == 0 {
				return c.finish(), nil
			}
		}
		if d.now >= maxCycles {
			return d.now, fmt.Errorf("card: %w: budget of %d with %d tasks unresolved",
				sim.ErrBudget, maxCycles, d.unresolved())
		}
		if c.Interrupt != nil && c.Interrupt() {
			return d.now, ErrInterrupted
		}
		target := min((d.now/slice+1)*slice, maxCycles)
		c.advance(target)
		d.now = target
		if c.SliceHook != nil {
			c.SliceHook(d.now)
		}
	}
}

// advance steps every live processor to the target cycle, applying
// scheduled chip kills and converting engine errors (watchdog stalls,
// component panics) into processor deaths.
func (c *Card) advance(target uint64) {
	d := c.disp
	for i, ch := range c.chips {
		if d.dead[i] {
			continue
		}
		stop := target
		if d.victims[i] && d.killCycle < stop {
			stop = max(d.killCycle, ch.Now())
		}
		if ch.Now() < stop {
			if _, err := ch.RunUntil(stop-ch.Now(), func() bool { return ch.Now() >= stop }); err != nil {
				// The chip wedged or panicked. Leave detected false:
				// redispatch() flips it at the next grid boundary (the
				// watchdog diagnostic is host-visible, so engine errors skip
				// the DetectCycles polling delay) and migrates the chip's
				// unresolved tasks to a survivor.
				d.dead[i], d.deadAt[i] = true, ch.Now()
				d.procErr[i] = err
				continue
			}
		}
		if d.victims[i] && ch.Now() >= d.killCycle {
			d.dead[i] = true
			d.deadAt[i] = d.killCycle
			c.inj.Stats.ChipKills.Add(1)
		}
	}
}

// harvest folds new completion records from every sub-scheduler into the
// task table. The first completion harvested wins (scan order: processor,
// sub-ring, record — all deterministic); later ones are duplicates from
// at-least-once re-execution and are counted but ignored.
func (c *Card) harvest() {
	d := c.disp
	for i, ch := range c.chips {
		for s, sub := range ch.Subs {
			rs := sub.Results
			for j := d.seen[i][s]; j < len(rs); j++ {
				r := rs[j]
				idx, ok := d.byID[r.TaskID]
				if !ok {
					continue
				}
				ts := d.tasks[idx]
				if ts.status != statusPending {
					d.duplicates++
					continue
				}
				ts.status = statusCompleted
				ts.resolved = r.Done
				ts.core = r.Core
				if ts.attempts > 1 {
					d.recovered++
				}
				lat := uint64(0)
				if r.Done > ts.arrival {
					lat = r.Done - ts.arrival
				}
				d.latency.Observe(lat)
			}
			d.seen[i][s] = len(rs)
		}
	}
}

// redispatch migrates submissions off newly detected dead processors and
// re-submits timed-out ones, in deterministic order: real-time tasks first,
// then submission order.
func (c *Card) redispatch() {
	d := c.disp
	// Recompute per-processor load from the pending assignments. A migrated
	// task may complete on its previous chip (the first harvested completion
	// wins), so incremental decrements against the current assignment would
	// skew least-loaded selection and brownout decisions.
	for i := range d.outstanding {
		d.outstanding[i] = 0
	}
	for _, ts := range d.tasks {
		if ts.status == statusPending && ts.chip >= 0 {
			d.outstanding[ts.chip]++
		}
	}
	newly := make([]bool, len(c.chips))
	any := false
	for i := range c.chips {
		if !d.dead[i] || d.detected[i] {
			continue
		}
		// An engine error (watchdog stall, component panic) is a host-visible
		// diagnostic, detected at the first boundary; a scheduled kill waits
		// out the health-polling latency.
		if d.procErr[i] != nil || d.now >= d.deadAt[i]+c.cfg.Dispatch.DetectCycles {
			d.detected[i] = true
			newly[i] = true
			any = true
		}
	}
	var moves []int
	if any {
		for idx, ts := range d.tasks {
			if ts.status == statusPending && newly[ts.chip] {
				moves = append(moves, idx)
			}
		}
	}
	if to := c.cfg.Dispatch.SubmitTimeout; to > 0 {
		for idx, ts := range d.tasks {
			if ts.status == statusPending && !d.dead[ts.chip] && d.now >= ts.submitted+to {
				moves = append(moves, idx)
				d.timeouts++
			}
		}
	}
	if len(moves) == 0 {
		return
	}
	sort.SliceStable(moves, func(a, b int) bool {
		ra := d.tasks[moves[a]].task.Priority == kernels.PriorityRealTime
		rb := d.tasks[moves[b]].task.Priority == kernels.PriorityRealTime
		if ra != rb {
			return ra
		}
		return moves[a] < moves[b]
	})
	for _, idx := range moves {
		c.moveTask(d.tasks[idx])
	}
}

// moveTask re-dispatches one unresolved submission: retry budget, survivor
// selection (fewest unresolved tasks, ties to the lowest processor index),
// brownout shedding, then a fresh PCIe transfer with host-side backoff.
func (c *Card) moveTask(ts *taskState) {
	d := c.disp
	d.outstanding[ts.chip]--
	if ts.attempts > c.cfg.Dispatch.TaskRetries {
		c.resolve(ts, statusAbandoned, ReasonRetries)
		return
	}
	best := -1
	for i := range c.chips {
		if d.dead[i] {
			continue
		}
		if best < 0 || d.outstanding[i] < d.outstanding[best] {
			best = i
		}
	}
	if best < 0 {
		c.resolve(ts, statusAbandoned, ReasonChipLost)
		return
	}
	rt := ts.task.Priority == kernels.PriorityRealTime
	if bd := c.cfg.Dispatch.BrownoutDepth; bd > 0 && !rt && d.outstanding[best] >= bd {
		c.resolve(ts, statusShed, ReasonBrownout)
		return
	}
	extra, lost := c.pcieTransfer(best, d.now, ts.task.ID, ts.attempts)
	if lost {
		c.resolve(ts, statusAbandoned, ReasonPCIeLost)
		return
	}
	t := ts.task
	t.ReleaseCycle = d.now + c.cfg.PCIe.LatencyCycles + retryBackoff(ts.attempts) + extra
	ts.chip = best
	ts.attempts++
	ts.submitted = t.ReleaseCycle
	d.outstanding[best]++
	d.history[best] = append(d.history[best], d.byID[t.ID])
	d.resubmits++
	c.chips[best].Submit([]kernels.Task{t})
}

// retryBackoff is the host-side capped exponential backoff before a task
// re-submission — scaled to PCIe round trips (the NoC's RetryDelay is
// scaled to link traversals and would be invisible at card granularity).
func retryBackoff(attempt int) uint64 {
	if attempt > 6 {
		attempt = 6
	}
	return uint64(1) << uint(attempt) * 500
}

// resolve finalizes a task's accounting record. The caller has already
// removed it from per-processor outstanding counts.
func (c *Card) resolve(ts *taskState, st taskStatus, reason string) {
	ts.status = st
	ts.reason = reason
	ts.resolved = c.disp.now
}

// finish stamps the run's completion cycle: the last resolution plus the
// PCIe hop that reports it to the host.
func (c *Card) finish() uint64 {
	d := c.disp
	var last uint64
	for _, ts := range d.tasks {
		last = max(last, ts.resolved)
	}
	d.final = last + c.cfg.PCIe.LatencyCycles
	d.finished = true
	return d.final
}

func (c *Card) aliveCount() int {
	n := 0
	for i := range c.chips {
		if !c.disp.dead[i] {
			n++
		}
	}
	return n
}

// deadCardErr joins one error per failed processor, naming each: the
// PR 1 error-path style, but without the first failure masking the rest.
func (c *Card) deadCardErr() error {
	d := c.disp
	errs := make([]error, 0, len(c.chips))
	for i := range c.chips {
		switch {
		case d.procErr[i] != nil:
			errs = append(errs, fmt.Errorf("card: processor %d: %w", i, d.procErr[i]))
		case d.dead[i]:
			errs = append(errs, fmt.Errorf("card: processor %d: killed at cycle %d", i, d.deadAt[i]))
		}
	}
	return errors.Join(errs...)
}
