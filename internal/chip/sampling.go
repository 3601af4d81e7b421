// Sampled simulation (DESIGN.md §13): RunSampled alternates detailed
// sample windows — task batches executed on the full timing model and
// drained — with fast-forward spans retired on the functional golden model,
// then extrapolates the full-detail cycle count SMARTS-style from the
// windows' measured steady-state task throughput.
//
// The schedule is planned in task space by internal/sampling and never
// depends on measured rates, so a sampled run is deterministic and its
// estimate is invariant across partition counts, lookahead settings, and
// run-pool sizes: window boundary cycles are observed on the engine's
// absolute done-condition grid (sim.Engine.Run), which every partition
// count and lookahead override shares.
package chip

import (
	"errors"
	"fmt"

	"smarco/internal/kernels"
	"smarco/internal/sampling"
	"smarco/internal/sim"
	"smarco/internal/snapshot"
)

// ffMaxSteps caps functional instructions per fast-forwarded task, so a
// wedged kernel fails loudly instead of hanging the host.
const ffMaxSteps = 1_000_000_000

// SampledWindow records one measured detailed window of a sampled run.
type SampledWindow struct {
	Tasks int     // batch size
	Start uint64  // engine cycle at window entry
	End   uint64  // engine cycle at batch drain
	Rate  float64 // steady-state cycles per task
	// EntryMemCRC fingerprints the memory image at window entry (the drain
	// barrier), for bit-identity checks against a full-detail run of the
	// same task prefix.
	EntryMemCRC uint64
}

// SampledResult is the outcome of a completed sampled run.
type SampledResult struct {
	EstCycles      uint64 // extrapolated full-detail cycle count
	DetailedCycles uint64 // cycles actually simulated in windows
	FastTasks      int    // tasks retired functionally
	FFInstructions uint64 // instructions executed by the functional model
	RelErr         float64
	Windows        []SampledWindow
}

// winProgress tracks a detailed window in flight, so budget-sliced sampled
// runs (and mid-window checkpoints) resume exactly.
type winProgress struct {
	span      int
	base      int // CompletedTasks() at entry
	start     uint64
	entryCRC  uint64
	submitted bool
	// Inner-region markers: engine cycles at which the completion count
	// crossed base+margin (loAt) and base+batch-margin (hiAt). Crossings are
	// observed on the engine's absolute done-condition grid, so they are
	// identical across partition counts, lookahead settings, and budget
	// slicing.
	loSet, hiSet bool
	loAt, hiAt   uint64
}

// spanEvent notifies a timeline observer that one schedule span retired.
type spanEvent struct {
	detailed         bool
	estStart, estEnd uint64 // span bounds on the estimated-cycle axis
	engStart, engEnd uint64 // engine cycles (detailed spans only)
	tasks            int
	instr            uint64 // functional instructions (fast-forward spans)
}

// sampState is the sampled-run controller state.
type sampState struct {
	plan    *sampling.Schedule
	est     sampling.Estimator
	span    int // next span index
	cursor  int // next task index
	win     *winProgress
	windows []SampledWindow
	ffInstr uint64
	result  *SampledResult
	onSpan  func(spanEvent) // nil outside timeline runs
}

// Sampled returns the completed sampled run's result (nil before a sampled
// run finishes, and always nil on unsampled chips).
func (c *Chip) Sampled() *SampledResult {
	if c.samp == nil {
		return nil
	}
	return c.samp.result
}

// EstimatedCycles returns the run's position on the estimated-cycle axis:
// detailed window cycles plus fast-forward charges. Equal to Now() on
// unsampled chips.
func (c *Chip) EstimatedCycles() uint64 {
	if c.samp == nil {
		return c.Now()
	}
	est := c.samp.est.Cycles()
	if w := c.samp.win; w != nil {
		est += c.Now() - w.start
	}
	return est
}

// MemFingerprint hashes the chip's memory image with the checkpoint
// fingerprint primitive (the "mem" section CRC).
func (c *Chip) MemFingerprint() uint64 {
	f := snapshot.NewFile()
	e := snapshot.NewEncoder()
	c.store.Save(e)
	f.Add("mem", e.Bytes())
	return snapshot.Fingerprints(f)["mem"]
}

// sampledBudgetErr mirrors the engine's budget diagnostic on the
// estimated-cycle axis.
func (c *Chip) sampledBudgetErr(maxCycles uint64) error {
	return fmt.Errorf("chip: sampled: %w: budget of %d at estimated cycle %d",
		sim.ErrBudget, maxCycles, c.EstimatedCycles())
}

// startSampled validates the held workload and plans the schedule.
func (c *Chip) startSampled() error {
	for i := range c.held {
		if c.held[i].ReleaseCycle != 0 {
			return fmt.Errorf("chip: sampled runs require every task released at cycle 0 (task %d releases at %d)",
				c.held[i].ID, c.held[i].ReleaseCycle)
		}
	}
	plan, err := sampling.Plan(len(c.held), c.samplingConfig())
	if err != nil {
		return fmt.Errorf("chip: %w", err)
	}
	c.samp = &sampState{plan: plan}
	return nil
}

// samplingConfig is Config.Sampling with the chip-derived batch floor
// applied: twice runWindow's warm-up margin, so every window keeps a
// measurement region at least as long as the warm-up it discards — enough
// tasks to fill every thread and hold several queued per core through the
// inner region.
func (c *Chip) samplingConfig() sampling.Config {
	cfg := c.Config.Sampling
	if cfg.MinBatch == 0 {
		cfg.MinBatch = 2 * (c.Config.Threads() + 8*c.Config.Cores())
	}
	return cfg
}

// RunSampled executes the sampled schedule and returns the extrapolated
// cycle count. maxCycles bounds the run on the estimated-cycle axis — the
// budget a full-detail Run of the same workload would be given — and a
// budget stop clips the schedule exactly (call again with a larger budget
// to continue). Plain Run routes here when Config.Sampling is enabled.
func (c *Chip) RunSampled(maxCycles uint64) (uint64, error) {
	if !c.Config.Sampling.Enabled() {
		return c.Now(), fmt.Errorf("chip: RunSampled on a chip without Config.Sampling")
	}
	if c.samp == nil {
		if err := c.startSampled(); err != nil {
			return c.Now(), err
		}
	}
	s := c.samp
	for s.span < len(s.plan.Spans) {
		sp := s.plan.Spans[s.span]
		var err error
		if sp.Detailed {
			err = c.runWindow(maxCycles)
		} else {
			err = c.fastForward(maxCycles)
		}
		if err != nil {
			return c.EstimatedCycles(), err
		}
		s.span++
	}
	if s.result == nil {
		r := s.est.Result()
		s.result = &SampledResult{
			EstCycles:      r.Cycles,
			DetailedCycles: r.Detailed,
			FastTasks:      r.FastTasks,
			FFInstructions: s.ffInstr,
			RelErr:         r.RelErr,
			Windows:        s.windows,
		}
	}
	return s.result.EstCycles, nil
}

// runWindow executes the current detailed window: submit the batch and
// drain it, measuring the steady-state task throughput over the window's
// inner completions. A drained batch starting from an idle machine pays a
// warm-up of roughly threads + 8·cores tasks before dispatch, queue phase,
// and the memory system settle into continuous-run behaviour (measured:
// octile rates of an isolated batch match a continuous run's local rates
// only past that point), and a straggler tail at the back where the last
// ~threads completions add threads·(max−mean) cycles that continuous
// execution never pays. The rate therefore excludes the first
// threads + 8·cores and last threads completions; charging whole windows
// instead biases heterogeneous kernels high by 10–30%. Batches too small
// for a saturated inner region fall back to the whole-window rate.
// Threshold crossings are observed on the engine's absolute done-condition
// grid, keeping the measured rate identical across partition counts,
// lookahead settings, and budget slicing.
func (c *Chip) runWindow(maxCycles uint64) error {
	s := c.samp
	sp := s.plan.Spans[s.span]
	if s.win == nil || s.win.span != s.span {
		s.win = &winProgress{
			span:     s.span,
			base:     c.CompletedTasks(),
			start:    c.Now(),
			entryCRC: c.MemFingerprint(),
		}
	}
	w := s.win
	if !w.submitted {
		c.submitNow(c.held[sp.Start:sp.End])
		w.submitted = true
	}
	b := sp.Len()
	th, co := c.Config.Threads(), c.Config.Cores()
	front, tail := th+8*co, th
	inner := b >= front+tail+2*th
	drainTo := func(tgt int) error {
		for c.CompletedTasks() < tgt {
			spent := s.est.Cycles() + (c.Now() - w.start)
			if spent >= maxCycles {
				return c.sampledBudgetErr(maxCycles)
			}
			if _, err := c.eng.Run(maxCycles-spent, func() bool { return c.CompletedTasks() >= tgt }); err != nil {
				if errors.Is(err, sim.ErrBudget) {
					return c.sampledBudgetErr(maxCycles)
				}
				return err
			}
		}
		return nil
	}
	if inner {
		if !w.loSet {
			if err := drainTo(w.base + front); err != nil {
				return err
			}
			w.loAt, w.loSet = c.Now(), true
		}
		if !w.hiSet {
			if err := drainTo(w.base + b - tail); err != nil {
				return err
			}
			w.hiAt, w.hiSet = c.Now(), true
		}
	}
	if err := drainTo(w.base + b); err != nil {
		return err
	}
	var rate float64
	if inner && w.hiAt > w.loAt {
		rate = float64(w.hiAt-w.loAt) / float64(b-front-tail)
	} else {
		rate = float64(c.Now()-w.start) / float64(b)
	}
	if rate <= 0 {
		rate = 1
	}
	estStart := s.est.Cycles()
	s.est.AddWindow(sampling.Window{Tasks: b, Cycles: c.Now() - w.start, Rate: rate})
	s.windows = append(s.windows, SampledWindow{
		Tasks:       b,
		Start:       w.start,
		End:         c.Now(),
		Rate:        rate,
		EntryMemCRC: w.entryCRC,
	})
	if s.onSpan != nil {
		s.onSpan(spanEvent{
			detailed: true,
			estStart: estStart, estEnd: s.est.Cycles(),
			engStart: w.start, engEnd: c.Now(),
			tasks: b,
		})
	}
	s.win = nil
	s.cursor = sp.End
	return nil
}

// fastForward retires the current span on the functional model, charging
// each task at the preceding window's measured rate. A budget stop clips
// the span at the last whole task that fits.
func (c *Chip) fastForward(maxCycles uint64) error {
	s := c.samp
	sp := s.plan.Spans[s.span]
	if s.cursor < sp.Start {
		s.cursor = sp.Start
	}
	rate := s.est.Rate()
	for s.cursor < sp.End {
		if s.est.Cycles() >= maxCycles {
			return c.sampledBudgetErr(maxCycles)
		}
		n := sp.End - s.cursor
		if afford := float64(maxCycles-s.est.Cycles()) / rate; afford < float64(n) {
			n = int(afford)
		}
		if n <= 0 {
			return c.sampledBudgetErr(maxCycles)
		}
		estStart := s.est.Cycles()
		instr, err := kernels.ExecTasksFunctional(c.store, c.held[s.cursor:s.cursor+n], ffMaxSteps)
		s.ffInstr += instr
		if err != nil {
			return fmt.Errorf("chip: fast-forward: %w", err)
		}
		s.est.AddFast(n)
		s.cursor += n
		if s.onSpan != nil {
			s.onSpan(spanEvent{
				estStart: estStart, estEnd: s.est.Cycles(),
				tasks: n, instr: instr,
			})
		}
	}
	return nil
}

// SamplingSchedule returns the planned sampled schedule for the held
// workload, planning it on first call. The schedule is a pure function of
// the task count and the effective cadence, so every chip built from the
// same configuration and workload reports the same plan — the property the
// fan-out path relies on to agree with a sequential sampled run about
// which tasks belong to which window.
func (c *Chip) SamplingSchedule() (*sampling.Schedule, error) {
	if !c.Config.Sampling.Enabled() {
		return nil, fmt.Errorf("chip: SamplingSchedule on a chip without Config.Sampling")
	}
	if c.samp == nil {
		if err := c.startSampled(); err != nil {
			return nil, err
		}
	}
	return c.samp.plan, nil
}

// RunSampledWindow is the fan-out worker primitive: on a fresh sampled
// chip it reconstructs detailed window idx's entry state by retiring every
// earlier task on the functional model — the same reconstruction the
// fast-forward path uses, so the entry memory image is bit-identical to
// the sequential sampled run's (and, by the drain-point equivalence, to a
// full-detail run's at the same task prefix) — then runs that one window
// alone on the timing model and returns its measurement. maxCycles bounds
// the window's own detailed cycles.
//
// The chip is consumed afterwards: it has executed only the warmed prefix
// plus the window's batch. A caller farms each window to its own chip (one
// per runner-pool worker) and folds the measurements back into the SMARTS
// estimate with sampling.Estimator; see experiments.SampledFanOut.
func (c *Chip) RunSampledWindow(idx int, maxCycles uint64) (SampledWindow, error) {
	if !c.Config.Sampling.Enabled() {
		return SampledWindow{}, fmt.Errorf("chip: RunSampledWindow on a chip without Config.Sampling")
	}
	started := c.samp != nil && (c.samp.span != 0 || c.samp.cursor != 0 ||
		c.samp.win != nil || len(c.samp.windows) != 0)
	if started || c.Now() != 0 || c.submitted != 0 {
		return SampledWindow{}, fmt.Errorf("chip: RunSampledWindow needs a fresh chip (the worker is consumed by its window)")
	}
	if c.samp == nil {
		if err := c.startSampled(); err != nil {
			return SampledWindow{}, err
		}
	}
	s := c.samp
	wi := -1
	for i, sp := range s.plan.Spans {
		if !sp.Detailed {
			continue
		}
		wi++
		if wi != idx {
			continue
		}
		if sp.Start > 0 {
			instr, err := kernels.ExecTasksFunctional(c.store, c.held[:sp.Start], ffMaxSteps)
			s.ffInstr += instr
			if err != nil {
				return SampledWindow{}, fmt.Errorf("chip: fan-out warming: %w", err)
			}
			s.cursor = sp.Start
		}
		s.span = i
		if err := c.runWindow(maxCycles); err != nil {
			return SampledWindow{}, err
		}
		return s.windows[0], nil
	}
	return SampledWindow{}, fmt.Errorf("chip: no detailed window %d in a %d-window schedule", idx, s.plan.Windows())
}

// saveSamplingSection serializes the sampled-run controller so a
// checkpoint taken anywhere in a sampled run — including mid-window —
// resumes exactly (the engine, scheduler, and memory sections carry the
// rest of the window's state).
func (c *Chip) saveSamplingSection(e *snapshot.Encoder) {
	e.Int(len(c.held))
	if c.samp == nil {
		e.Bool(false)
		return
	}
	e.Bool(true)
	s := c.samp
	e.Int(s.span)
	e.Int(s.cursor)
	e.U64(s.ffInstr)
	e.Int(len(s.windows))
	for _, w := range s.windows {
		e.Int(w.Tasks)
		e.U64(w.Start)
		e.U64(w.End)
		e.F64(w.Rate)
		e.U64(w.EntryMemCRC)
	}
	e.Bool(s.win != nil)
	if w := s.win; w != nil {
		e.Int(w.span)
		e.Int(w.base)
		e.U64(w.start)
		e.U64(w.entryCRC)
		e.Bool(w.submitted)
		e.Bool(w.loSet)
		e.U64(w.loAt)
		e.Bool(w.hiSet)
		e.U64(w.hiAt)
	}
}

func (c *Chip) restoreSamplingSection(d *snapshot.Decoder) {
	if n := d.Int(); n != len(c.held) {
		d.Fail("sampling: checkpoint has %d held tasks, chip has %d (Submit the same workload before Restore)",
			n, len(c.held))
		return
	}
	if !d.Bool() {
		c.samp = nil
		return
	}
	plan, err := sampling.Plan(len(c.held), c.samplingConfig())
	if err != nil {
		d.Fail("sampling: %v", err)
		return
	}
	s := &sampState{plan: plan}
	s.span = d.Int()
	s.cursor = d.Int()
	s.ffInstr = d.U64()
	nw := d.Int()
	if nw < 0 || nw > len(plan.Spans) {
		d.Fail("sampling: %d recorded windows for a %d-span plan", nw, len(plan.Spans))
		return
	}
	for i := 0; i < nw; i++ {
		s.windows = append(s.windows, SampledWindow{
			Tasks:       d.Int(),
			Start:       d.U64(),
			End:         d.U64(),
			Rate:        d.F64(),
			EntryMemCRC: d.U64(),
		})
	}
	if d.Bool() {
		w := &winProgress{}
		w.span = d.Int()
		w.base = d.Int()
		w.start = d.U64()
		w.entryCRC = d.U64()
		w.submitted = d.Bool()
		w.loSet = d.Bool()
		w.loAt = d.U64()
		w.hiSet = d.Bool()
		w.hiAt = d.U64()
		s.win = w
	}
	if d.Err() != nil {
		return
	}
	// Replay the executed prefix of the schedule through a fresh estimator:
	// the estimate is a deterministic fold over (window stats, span plan),
	// so replaying reproduces it bit-for-bit without serializing floats
	// beyond the per-window rates.
	wi := 0
	for i := 0; i < s.span && i < len(plan.Spans); i++ {
		sp := plan.Spans[i]
		if sp.Detailed {
			if wi >= len(s.windows) {
				d.Fail("sampling: span %d has no recorded window", i)
				return
			}
			s.est.AddWindow(sampling.Window{
				Tasks:  s.windows[wi].Tasks,
				Cycles: s.windows[wi].End - s.windows[wi].Start,
				Rate:   s.windows[wi].Rate,
			})
			wi++
		} else {
			s.est.AddFast(sp.Len())
		}
	}
	// A partially fast-forwarded current span charged up to cursor.
	if s.span < len(plan.Spans) {
		sp := plan.Spans[s.span]
		if !sp.Detailed && s.cursor > sp.Start {
			s.est.AddFast(s.cursor - sp.Start)
		}
	}
	if wi != len(s.windows) {
		d.Fail("sampling: %d recorded windows, %d replayed", len(s.windows), wi)
	}
	c.samp = s
}
