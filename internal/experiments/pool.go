package experiments

import "smarco/internal/runner"

// pool runs every harness's independent simulations side by side, one
// whole chip or Xeon-model run per worker (chip runs on one partition —
// see runOnChip). Every harness places results by grid
// position, so the output is identical for any worker count.
var pool = runner.New(0)

// SetPoolWorkers bounds the harnesses' run-level concurrency (n <= 0
// restores the GOMAXPROCS default). Purely a wall-clock knob: every sweep
// returns identical results at any setting.
func SetPoolWorkers(n int) { pool = runner.New(n) }

// PoolWorkers reports the current run-level concurrency bound.
func PoolWorkers() int { return pool.Workers() }
