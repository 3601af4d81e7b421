package experiments

import (
	"fmt"
	"sort"

	"smarco/internal/chip"
	"smarco/internal/kernels"
	"smarco/internal/runner"
	"smarco/internal/sched"
	"smarco/internal/stats"
)

// Fig21Result is the exit-time distribution of one scheduler policy over a
// sub-ring of real-time tasks (Fig. 21).
type Fig21Result struct {
	Policy      string
	ExitCycles  []uint64 // completion cycle per task, sorted
	Deadline    uint64
	SuccessRate float64
	Spread      uint64 // max - min exit time
}

// Fig21Scheduler reproduces Fig. 21: 128 RNC thread tasks on one sub-ring
// with a common deadline, scheduled by the software Deadline Scheduler and
// by the hardware laxity-aware scheduler.
func Fig21Scheduler(scale Scale, seed uint64) ([]Fig21Result, error) {
	// One sub-ring of 16 cores = 128 thread contexts, as in the paper.
	baseCfg := chip.DefaultConfig()
	baseCfg.SubRings = 1
	baseCfg.CoresPerSub = 16
	baseCfg.MCs = 1
	baseCfg.Partitions = 1

	tasks := 128
	pktScale := 48
	if scale == ScaleSmall {
		baseCfg.CoresPerSub = 4 // 32 contexts
		tasks = 32
		pktScale = 32
	}

	// Calibrate the deadline from a FIFO dry run: all tasks must be
	// feasible (the paper sets 340 000 cycles for its task sizes).
	dry := baseCfg
	dry.Sched = sched.Config{Policy: sched.PolicyFIFO, DispatchPerCycle: 4}
	w := kernels.MustNew("rnc", kernels.Config{Seed: seed, Tasks: tasks, Scale: pktScale, StageSPM: true})
	c := chip.New(dry, w.Mem)
	c.Submit(w.Tasks)
	if _, err := c.Run(cycleBudget(scale)); err != nil {
		return nil, fmt.Errorf("fig21 dry run: %w", err)
	}
	var maxExit uint64
	for _, r := range c.Results() {
		if r.Done > maxExit {
			maxExit = r.Done
		}
	}
	deadline := maxExit + maxExit/10

	run := func(schedCfg sched.Config, policy string) (Fig21Result, error) {
		cfg := baseCfg
		cfg.Sched = schedCfg
		w := kernels.MustNew("rnc", kernels.Config{Seed: seed, Tasks: tasks, Scale: pktScale, StageSPM: true})
		for i := range w.Tasks {
			w.Tasks[i].Deadline = deadline
			w.Tasks[i].EstCycles = maxExit / uint64(tasks) * 4
		}
		c := chip.New(cfg, w.Mem)
		c.Submit(w.Tasks)
		if _, err := c.Run(cycleBudget(scale)); err != nil {
			return Fig21Result{}, fmt.Errorf("fig21 %s: %w", policy, err)
		}
		if err := w.Check(); err != nil {
			return Fig21Result{}, fmt.Errorf("fig21 %s output: %w", policy, err)
		}
		res := Fig21Result{Policy: policy, Deadline: deadline}
		met := 0
		for _, r := range c.Results() {
			res.ExitCycles = append(res.ExitCycles, r.Done)
			if r.Done <= deadline {
				met++
			}
		}
		sort.Slice(res.ExitCycles, func(i, j int) bool { return res.ExitCycles[i] < res.ExitCycles[j] })
		res.SuccessRate = float64(met) / float64(len(res.ExitCycles))
		res.Spread = res.ExitCycles[len(res.ExitCycles)-1] - res.ExitCycles[0]
		return res, nil
	}

	// The two policy runs are independent: run them on the pool.
	policies := []struct {
		cfg  sched.Config
		name string
	}{
		{sched.DefaultSW(), "deadline-software"},
		{sched.DefaultHW(), "laxity-hardware"},
	}
	return runner.Map(pool, len(policies), func(i int) (Fig21Result, error) {
		return run(policies[i].cfg, policies[i].name)
	})
}

// Fig21Table renders the distributions' summary.
func Fig21Table(results []Fig21Result) *stats.Table {
	t := stats.NewTable("Fig. 21 — task exit times: software deadline vs hardware laxity scheduler",
		"policy", "deadline", "min exit", "max exit", "spread", "success rate")
	for _, r := range results {
		t.AddRow(r.Policy, r.Deadline,
			r.ExitCycles[0], r.ExitCycles[len(r.ExitCycles)-1], r.Spread, r.SuccessRate)
	}
	return t
}
