package chip

import (
	"errors"
	"fmt"
	"io"

	"smarco/internal/sim"
)

// Sample is one timeline interval: the delta of the cumulative metrics over
// [Start, End) plus instantaneous occupancy, for plotting a run's behaviour
// over time.
type Sample struct {
	Start, End   uint64
	Instructions uint64
	IPC          float64
	MemRequests  uint64
	NoCBytes     uint64
	TasksDone    uint64
	QueuedTasks  int // tasks waiting in the schedulers at End
	// Sampled marks an extrapolated fast-forward interval of a sampled run:
	// Start/End live on the estimated-cycle axis, Instructions counts the
	// functional model's work, and no detailed state was simulated. Rows
	// with Sampled false are cycle-accurate.
	Sampled bool
}

// RunWithTimeline runs like Run but records one Sample per interval cycles.
//
// maxCycles bounds the TOTAL cycles executed (not cycles since the last
// sample), and each interval executes under Engine.Run, so the progress
// watchdog, panic recovery, and the partition workers all work exactly as
// they do in a plain Run: a wedged workload stops with the watchdog's
// stalled-component diagnostic instead of sampling forever. Every snapshot
// goes through Chip.Metrics, which settles quiescence-skipped components
// first, so a sample describes precisely the cycle range it claims.
func (c *Chip) RunWithTimeline(maxCycles, interval uint64) ([]Sample, uint64, error) {
	if c.Config.Sampling.Enabled() {
		return c.runSampledTimeline(maxCycles)
	}
	if interval == 0 {
		interval = 1000
	}
	start := c.Now()
	var samples []Sample
	prev := c.Metrics()
	prevCycle := c.Now()
	done := func() bool { return c.CompletedTasks() >= c.submitted }

	for {
		if done() {
			return samples, c.Now(), nil
		}
		elapsed := c.Now() - start
		if elapsed >= maxCycles {
			return samples, c.Now(), fmt.Errorf(
				"chip: timeline: %w: budget of %d at cycle %d", sim.ErrBudget, maxCycles, c.Now())
		}
		step := interval
		if rem := maxCycles - elapsed; rem < step {
			step = rem
		}
		_, err := c.eng.Run(step, done)
		if c.Now() > prevCycle {
			var s Sample
			s, prev = c.detailedSample(prev, prevCycle, c.Now(), c.Now()-prevCycle)
			samples = append(samples, s)
			prevCycle = c.Now()
		}
		// An interval ending on its per-interval budget is the normal
		// sampling cadence; anything else (watchdog stall, component
		// panic) aborts the timeline with that diagnostic.
		if err != nil && !errors.Is(err, sim.ErrBudget) {
			return samples, c.Now(), err
		}
	}
}

// runSampledTimeline is RunWithTimeline for sampled runs: the schedule's
// spans are the intervals (one cycle-accurate row per detailed window, one
// extrapolated row per fast-forward charge), all on the estimated-cycle
// axis, so the timeline covers the whole estimated run without the plain
// path's per-interval cadence (which would spin the engine during warming
// and trip the budget on cycles the run never simulates).
func (c *Chip) runSampledTimeline(maxCycles uint64) ([]Sample, uint64, error) {
	if c.samp == nil {
		if err := c.startSampled(); err != nil {
			return nil, c.Now(), err
		}
	}
	var samples []Sample
	prev := c.Metrics()
	c.samp.onSpan = func(ev spanEvent) {
		if ev.detailed {
			var s Sample
			s, prev = c.detailedSample(prev, ev.estStart, ev.estEnd, ev.engEnd-ev.engStart)
			samples = append(samples, s)
			return
		}
		s := Sample{
			Start:        ev.estStart,
			End:          ev.estEnd,
			Instructions: ev.instr,
			TasksDone:    uint64(ev.tasks),
			Sampled:      true,
		}
		if ev.estEnd > ev.estStart {
			s.IPC = float64(ev.instr) / float64(ev.estEnd-ev.estStart)
		}
		samples = append(samples, s)
	}
	defer func() { c.samp.onSpan = nil }()
	est, err := c.RunSampled(maxCycles)
	return samples, est, err
}

// detailedSample is the cycle-accurate Sample over [start, end), which
// took cycles engine cycles since the metrics prev were read. It returns
// the metrics it read, for the next sample.
func (c *Chip) detailedSample(prev Metrics, start, end, cycles uint64) (Sample, Metrics) {
	cur := c.Metrics()
	queued := c.Main.PendingLen()
	for _, s := range c.Subs {
		queued += s.QueueLen()
	}
	return Sample{
		Start:        start,
		End:          end,
		Instructions: cur.Instructions - prev.Instructions,
		IPC:          float64(cur.Instructions-prev.Instructions) / float64(cycles),
		MemRequests:  cur.MemRequests - prev.MemRequests,
		NoCBytes:     cur.SubRingBytes + cur.MainRingBytes - prev.SubRingBytes - prev.MainRingBytes,
		TasksDone:    cur.TasksDone - prev.TasksDone,
		QueuedTasks:  queued,
	}, cur
}

// WriteTimelineCSV renders samples as CSV for plotting. The sampled column
// is 1 on extrapolated fast-forward intervals of a sampled run.
func WriteTimelineCSV(w io.Writer, samples []Sample) error {
	if _, err := fmt.Fprintln(w, "start,end,instructions,ipc,mem_requests,noc_bytes,tasks_done,queued_tasks,sampled"); err != nil {
		return err
	}
	for _, s := range samples {
		flag := 0
		if s.Sampled {
			flag = 1
		}
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%.4f,%d,%d,%d,%d,%d\n",
			s.Start, s.End, s.Instructions, s.IPC, s.MemRequests, s.NoCBytes, s.TasksDone, s.QueuedTasks, flag); err != nil {
			return err
		}
	}
	return nil
}
