// Package runner provides a bounded-concurrency work pool for running
// independent simulations side by side. Every figure harness, the
// conformance matrix, and smarcobench's suite mode execute dozens of chip
// or Xeon-model runs that share nothing; the per-simulation winner on most
// hosts is one engine partition, so the scalable axis is run-level
// parallelism — one whole simulation per CPU — rather than
// partition-level parallelism inside each one.
//
// Results are deterministic by construction: Map places every result at
// its input's index, so the output order is the input order no matter how
// the scheduler interleaves completions, and a pool of one worker produces
// byte-identical output to a pool of N (each simulation is itself
// deterministic and shares no state with its siblings).
package runner

import (
	"runtime"
	"sync"
)

// Pool bounds how many tasks run concurrently. The zero value is not
// usable; construct with New.
type Pool struct {
	workers int
}

// New returns a pool running at most workers tasks at once; workers <= 0
// selects GOMAXPROCS.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// Map runs fn(0..n-1) on the pool and returns the results in index order.
// All n tasks run to completion even when some fail; the returned error is
// the lowest-index task's error (deterministic regardless of completion
// order), with the full result slice still populated for the tasks that
// succeeded. fn must be safe to call from multiple goroutines.
func Map[T any](p *Pool, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	if n == 0 {
		return out, nil
	}
	workers := p.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			out[i], errs[i] = fn(i)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := range idx {
					out[i], errs[i] = fn(i)
				}
			}()
		}
		for i := 0; i < n; i++ {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}
