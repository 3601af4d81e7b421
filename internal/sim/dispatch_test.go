package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// setProcs sets GOMAXPROCS to n for the duration of the test. Run starts
// its workers only with more than one P, so the worker tests pin it rather
// than depend on the host's CPU count.
func setProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// waitGoroutines waits until at most want goroutines exist. stopWorkers
// returns once every worker has signalled its exit, which is a moment
// before the goroutine itself is gone.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, %d before it: workers outlived Run",
				runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
	}
}

// handOffAll makes e hand every dispatch to its workers, however light,
// so a test on a toy wiring exercises the handoff path it is about.
func handOffAll(e *Engine) { e.handoffMin = 0 }

// checkHandedOff fails the test unless e handed every dispatch it made
// while workers ran to them, and made at least one.
func checkHandedOff(t *testing.T, e *Engine) {
	t.Helper()
	if h, d := e.Handoffs(); h == 0 || h != d {
		t.Fatalf("%d of %d dispatches handed off, want all and at least one", h, d)
	}
}

// receipts copies the pingers' receipt logs.
func receipts(ps ...*pinger) string {
	logs := make([][][2]uint64, len(ps))
	for i, p := range ps {
		logs[i] = p.log
	}
	return fmt.Sprint(logs)
}

// TestFusedSingleCycleEpochs: a Step is a one-cycle window on every
// wiring, while Run cuts the run into windows as wide as the widest
// shard's. On the wiring whose cross ports all take one cycle that is one
// cycle too; on the 8/2/1 triangle it is eight. Either way deliveries land
// on exactly u+lat, identically under a Step loop and under Run, serially
// and on 2 and 3 partitions, and neither Epochs nor the per-shard block
// counters count one-cycle windows.
func TestFusedSingleCycleEpochs(t *testing.T) {
	setProcs(t, 2)
	for _, lat := range [][3]uint64{{1, 1, 1}, {8, 2, 1}} {
		var ref string
		for _, parts := range []int{1, 2, 3} {
			for _, useRun := range []bool{false, true} {
				e, ps := buildTriangleLat(lat, 0, parts > 1)
				e.SetMaxPartitions(parts)
				if useRun {
					if _, err := e.Run(300, nil); !errors.Is(err, ErrBudget) {
						t.Fatalf("lat=%v parts=%d: %v", lat, parts, err)
					}
				} else {
					for i := 0; i < 300; i++ {
						e.Step()
					}
				}
				name := fmt.Sprintf("lat=%v parts=%d run=%v", lat, parts, useRun)
				if got := e.Partitions(); got != parts {
					t.Fatalf("%s: %d partitions", name, got)
				}
				// a hears c (key 3), b hears a (key 1), c hears b (key 2).
				for i, from := range []uint64{3, 1, 2} {
					if len(ps[i].log) == 0 {
						t.Fatalf("%s: pinger%d received nothing", name, ps[i].key)
					}
					for _, rec := range ps[i].log {
						if u := rec[1] - from*1_000_000; rec[0] != u+lat[i] {
							t.Fatalf("%s: send at %d received at %d, want %d", name, u, rec[0], u+lat[i])
						}
					}
				}
				got := receipts(ps[:]...)
				if ref == "" {
					ref = got
				} else if got != ref {
					t.Fatalf("%s: receipt history diverged from serial Step", name)
				}
				oneCycle := !useRun || lat == [3]uint64{1, 1, 1}
				if n := e.Epochs(); (n == 0) != oneCycle {
					t.Fatalf("%s: %d epochs counted, want them only for multi-cycle windows", name, n)
				}
				for i, w := range e.WindowReport() {
					if w.Window != lat[i] || (w.Blocks == 0) != oneCycle {
						t.Fatalf("%s: shard %s window %d blocks %d, want window %d and blocks only for multi-cycle windows",
							name, w.Label, w.Window, w.Blocks, lat[i])
					}
				}
			}
		}
	}
}

// orderTicker logs its phases into a log shared across shards (serial
// executor only).
type orderTicker struct {
	name string
	log  *[]string
}

func (o *orderTicker) Tick(uint64)   { *o.log = append(*o.log, o.name+":tick") }
func (o *orderTicker) Commit(uint64) { *o.log = append(*o.log, o.name+":commit") }

// TestSingleCyclePath pins how one cycle runs: shard by shard, each
// shard's phases before the next shard's, on a wiring without cross ports
// as on one that registers them.
func TestSingleCyclePath(t *testing.T) {
	var log []string
	x, y := &orderTicker{"x", &log}, &orderTicker{"y", &log}
	crossed, _, _ := buildPingPong(1, 0, false)
	for _, tc := range []struct {
		name string
		e    *Engine
	}{{"wiring without cross ports", NewEngine()}, {"cross-port wiring", crossed}} {
		log = nil
		tc.e.AddShard("x", x)
		tc.e.AddShard("y", y)
		tc.e.Step()
		if got, want := fmt.Sprint(log), "[x:tick x:commit y:tick y:commit]"; got != want {
			t.Fatalf("%s ran %v, want shard-major %v", tc.name, got, want)
		}
	}
}

// TestWorkersJoinedAfterRun: Run starts its workers and has joined them by
// the time it returns, whichever way it ends — done, budget, a component
// panic, or the watchdog — on one-cycle windows, windows of one round, and
// per-shard rounds.
func TestWorkersJoinedAfterRun(t *testing.T) {
	setProcs(t, 2)
	for _, tc := range []struct {
		name  string
		build func() (*Engine, func() bool)
		want  func(error) bool
	}{
		{"done", func() (*Engine, func() bool) {
			e, a, _ := buildPingPong(1, 0, true)
			return e, func() bool { return a.sent >= 20 }
		}, func(err error) bool { return err == nil }},
		{"budget", func() (*Engine, func() bool) {
			e, _ := buildTriangle(0, true)
			e.SetMaxPartitions(2)
			return e, nil
		}, func(err error) bool { return errors.Is(err, ErrBudget) }},
		{"panic", func() (*Engine, func() bool) {
			e := NewEngine()
			e.SetParallel(true)
			e.SetMaxPartitions(2)
			e.AddShard("", &panicTicker{name: "core7", at: 50})
			e.AddShard("", idleTicker{})
			return e, nil
		}, func(err error) bool { return err != nil && strings.Contains(err.Error(), "panicked at cycle 50") }},
		{"watchdog", func() (*Engine, func() bool) {
			e, a, b := buildPingPong(4, 0, true)
			a.every, b.every = 0, 0
			e.Add(&wedgedHealth{})
			e.SetWatchdog(100)
			return e, nil
		}, func(err error) bool { return errors.Is(err, ErrStalled) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, done := tc.build()
			handOffAll(e)
			before := runtime.NumGoroutine()
			during := 0
			probe := func() bool {
				during = max(during, runtime.NumGoroutine())
				return done != nil && done()
			}
			if _, err := e.Run(1_000, probe); !tc.want(err) {
				t.Fatalf("unexpected Run result: %v", err)
			}
			if during <= before {
				t.Fatalf("%d goroutines during Run, %d before it: no worker started", during, before)
			}
			checkHandedOff(t, e)
			waitGoroutines(t, before)
		})
	}
}

// TestBudgetSlicedRunsMatchStraightRun: Runs cut into budget slices start
// and stop their workers at every slice and realign with the done grid,
// yet reproduce one straight serial Run on the per-shard and the
// one-cycle wirings.
func TestBudgetSlicedRunsMatchStraightRun(t *testing.T) {
	setProcs(t, 2)
	const total = 300
	for _, lat := range [][3]uint64{{8, 2, 1}, {1, 1, 1}} {
		run := func(parallel bool, slice uint64) string {
			e, ps := buildTriangleLat(lat, 0, parallel)
			e.SetMaxPartitions(2)
			handOffAll(e)
			before := runtime.NumGoroutine()
			for e.Now() < total {
				if _, err := e.Run(min(slice, total-e.Now()), nil); !errors.Is(err, ErrBudget) {
					t.Fatalf("lat=%v slice=%d: %v", lat, slice, err)
				}
			}
			if parallel {
				checkHandedOff(t, e)
			}
			waitGoroutines(t, before)
			return receipts(ps[:]...)
		}
		ref := run(false, total)
		for _, slice := range []uint64{1, 7, 13, total} {
			if got := run(true, slice); got != ref {
				t.Fatalf("lat=%v slice=%d: sliced parallel run diverged from one serial run", lat, slice)
			}
		}
	}
}

// sleeper stalls its partition now and then, longer than a waiter polls,
// so the partitions waiting on it must park.
type sleeper struct{}

func (sleeper) Tick(now uint64) {
	if now%64 == 0 {
		time.Sleep(200 * time.Microsecond)
	}
}
func (sleeper) Commit(uint64) {}

// TestConcurrentEnginesOversubscribed: four parallel engines of two
// partitions each share two Ps, so coordinators and workers outnumber the
// CPUs and must park while a peer is descheduled; a sleeping component
// makes parks certain. Every engine still matches its serial run.
func TestConcurrentEnginesOversubscribed(t *testing.T) {
	setProcs(t, 2)
	const cycles = 600
	scenarios := []func(parallel bool) (*Engine, func() string){
		func(parallel bool) (*Engine, func() string) { // one-cycle windows
			e, a, b := buildPingPong(1, 0, parallel)
			return e, func() string { return receipts(a, b) }
		},
		func(parallel bool) (*Engine, func() string) { // four-cycle windows of one round
			e, a, b := buildPingPong(4, 0, parallel)
			return e, func() string { return receipts(a, b) }
		},
		func(parallel bool) (*Engine, func() string) { // per-shard rounds
			e, ps := buildTriangle(0, parallel)
			e.SetMaxPartitions(2)
			return e, func() string { return receipts(ps[:]...) }
		},
	}
	run := func(i int, parallel bool) (string, error) {
		e, result := scenarios[i](parallel)
		e.Add(sleeper{})
		handOffAll(e)
		if _, err := e.Run(cycles, nil); !errors.Is(err, ErrBudget) {
			return "", err
		}
		if h, d := e.Handoffs(); parallel && (h == 0 || h != d) {
			return "", fmt.Errorf("%d of %d dispatches handed off, want all", h, d)
		}
		return result(), nil
	}
	got := make([]string, len(scenarios))
	errs := make([]error, len(scenarios))
	var wg sync.WaitGroup
	for i := range scenarios {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = run(i, true)
		}(i)
	}
	wg.Wait()
	for i := range scenarios {
		if errs[i] != nil {
			t.Fatalf("scenario %d: %v", i, errs[i])
		}
		want, err := run(i, false)
		if err != nil {
			t.Fatalf("scenario %d serial: %v", i, err)
		}
		if got[i] != want {
			t.Fatalf("scenario %d: parallel run under oversubscription diverged from serial", i)
		}
	}
}

// BenchmarkDispatch times one simulated cycle of two near-empty shards on
// two partitions, handed to the workers ("handoff") and run inline on the
// caller ("inline"). The difference is what a handoff costs beyond the
// work it carries: the measurement behind handoffWork.
func BenchmarkDispatch(b *testing.B) {
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	for _, tc := range []struct {
		name string
		min  uint64
	}{{"inline", ^uint64(0)}, {"handoff", 0}} {
		b.Run(tc.name, func(b *testing.B) {
			e, _, _ := buildPingPong(1, 0, true)
			e.handoffMin = tc.min
			b.ResetTimer()
			if _, err := e.Run(uint64(b.N), nil); !errors.Is(err, ErrBudget) {
				b.Fatal(err)
			}
		})
	}
}

// dormant sleeps from its first cycle on: nothing ever wakes it.
type dormant struct{}

func (dormant) Tick(uint64)                     {}
func (dormant) Commit(uint64)                   {}
func (dormant) Quiescent(uint64) (bool, uint64) { return true, WakeNever }

// BenchmarkDispatchSleepers times one simulated cycle of a cross-port
// wiring with one busy shard (a component ticking every cycle) beside
// 0, 16 or 64 shards whose components all sleep, on the serial executor.
// A sleeping shard's phases are skipped, so the cost per cycle should not
// grow with the number of sleeping shards.
func BenchmarkDispatchSleepers(b *testing.B) {
	for _, n := range []int{0, 16, 64} {
		b.Run(fmt.Sprintf("sleepers=%d", n), func(b *testing.B) {
			e := NewEngine()
			busy := &counterTicker{}
			e.AddShard("busy", busy)
			e.AddCrossPortFor(busy, NewPort[uint64](0))
			for i := 0; i < n; i++ {
				e.AddShard(fmt.Sprintf("sleep%d", i), dormant{})
			}
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := e.Run(uint64(b.N), nil); !errors.Is(err, ErrBudget) {
				b.Fatal(err)
			}
		})
	}
}

// burster ticks only during [from, to): it sleeps on a timer until from,
// then stays active until to, folding every cycle it ticks into sum.
type burster struct {
	from, to, sum uint64
}

func (b *burster) Tick(now uint64) { b.sum = b.sum*31 + now }
func (b *burster) Commit(uint64)   {}
func (b *burster) Quiescent(now uint64) (bool, uint64) {
	switch {
	case now+1 < b.from:
		return true, b.from
	case now+1 < b.to:
		return false, 0
	}
	return true, WakeNever
}

// TestHandoffFollowsWork: two shards of bursters wake mid-run, so the
// engine's work per dispatch rises past handoffWork and falls back. Under
// every window shape (one-cycle windows, four-cycle windows of one round,
// per-shard rounds) the run hands the heavy dispatches to the workers and
// runs the light ones inline, and matches the serial run bit for bit:
// pinger receipts, burster sums and per-shard tick counts.
func TestHandoffFollowsWork(t *testing.T) {
	setProcs(t, 2)
	const cycles = 400
	const perShard = handoffWork // two shards of them: twice the threshold
	build := func(lat [3]uint64, parallel bool) (*Engine, func() string) {
		e, ps := buildTriangleLat(lat, 0, parallel)
		e.SetMaxPartitions(2)
		var bs []*burster
		for s := 0; s < 2; s++ {
			group := make([]Ticker, perShard)
			for i := range group {
				b := &burster{from: 100 + uint64(i%7), to: 200 + uint64(s*50+i)}
				bs = append(bs, b)
				group[i] = b
			}
			e.AddShard(fmt.Sprintf("burst%d", s), group...)
		}
		return e, func() string {
			var sums, ticks []uint64
			for _, b := range bs {
				sums = append(sums, b.sum)
			}
			for _, l := range e.LoadReport() {
				ticks = append(ticks, l.Ticks)
			}
			return fmt.Sprint(receipts(ps[:]...), sums, ticks)
		}
	}
	for _, lat := range [][3]uint64{{1, 1, 1}, {4, 4, 4}, {8, 2, 1}} {
		run := func(parallel bool) (string, *Engine) {
			e, result := build(lat, parallel)
			if _, err := e.Run(cycles, nil); !errors.Is(err, ErrBudget) {
				t.Fatalf("lat=%v parallel=%v: %v", lat, parallel, err)
			}
			return result(), e
		}
		want, _ := run(false)
		got, e := run(true)
		if got != want {
			t.Fatalf("lat=%v: parallel run diverged from serial:\n%s\nvs\n%s", lat, got, want)
		}
		if h, d := e.Handoffs(); h == 0 || h == d {
			t.Fatalf("lat=%v: %d of %d dispatches handed off, want some but not all", lat, h, d)
		}
	}
}
