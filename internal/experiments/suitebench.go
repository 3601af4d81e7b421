package experiments

import "time"

// SuiteRun is one timed pass of the ablation sweep (the heaviest harness
// grid) at a fixed run-pool size. Cycle counts are identical at every pool
// size; only wall time moves.
type SuiteRun struct {
	Workers     int     `json:"workers"`
	Sims        int     `json:"sims"` // distinct simulations the grid ran
	WallSeconds float64 `json:"wall_seconds"`
}

// MeasureSuite times the full ablation grid with the run pool bounded to
// the given worker count, restoring the previous bound afterwards.
func MeasureSuite(scale Scale, seed uint64, workers int) (SuiteRun, error) {
	old := PoolWorkers()
	SetPoolWorkers(workers)
	defer SetPoolWorkers(old)
	start := time.Now()
	_, sims, err := ablationGrid(scale, seed, nil)
	if err != nil {
		return SuiteRun{}, err
	}
	return SuiteRun{
		Workers:     PoolWorkers(),
		Sims:        sims,
		WallSeconds: time.Since(start).Seconds(),
	}, nil
}
