package sim

import (
	"fmt"
	"strings"
	"testing"
)

// wedgedTicker makes progress for a while, then stops while still holding
// work — the signature of a wedged component.
type wedgedTicker struct {
	name       string
	work       uint64
	stopAfter  uint64
	pendingMsg string
}

func (w *wedgedTicker) Tick(now uint64) {
	if now < w.stopAfter {
		w.work++
	}
}
func (w *wedgedTicker) Commit(uint64)    {}
func (w *wedgedTicker) String() string   { return w.name }
func (w *wedgedTicker) Progress() uint64 { return w.work }
func (w *wedgedTicker) Health() string {
	if w.work > 0 {
		return w.pendingMsg
	}
	return ""
}

// idleTicker is quiescent: no progress, but also no pending work.
type idleTicker struct{}

func (idleTicker) Tick(uint64)      {}
func (idleTicker) Commit(uint64)    {}
func (idleTicker) Progress() uint64 { return 0 }
func (idleTicker) Health() string   { return "" }

func TestWatchdogFiresOnWedgedComponent(t *testing.T) {
	e := NewEngine()
	w := &wedgedTicker{name: "router3", stopAfter: 50, pendingMsg: "7 packets queued"}
	e.Add(w, idleTicker{})
	e.SetWatchdog(100)
	_, err := e.Run(10_000, nil)
	if err == nil {
		t.Fatal("expected watchdog error, run completed")
	}
	msg := err.Error()
	if !strings.Contains(msg, "watchdog") {
		t.Fatalf("error is not a watchdog diagnostic: %v", err)
	}
	if !strings.Contains(msg, "router3") || !strings.Contains(msg, "7 packets queued") {
		t.Fatalf("watchdog did not name the stalled component: %v", err)
	}
}

func TestWatchdogQuietWhenIdle(t *testing.T) {
	// Zero progress with nothing pending is idleness, not a wedge: the run
	// should exhaust its budget, not trip the watchdog.
	e := NewEngine()
	e.Add(idleTicker{})
	e.SetWatchdog(100)
	_, err := e.Run(1_000, nil)
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("want budget exhaustion, got %v", err)
	}
}

func TestWatchdogQuietWhileProgressing(t *testing.T) {
	e := NewEngine()
	w := &wedgedTicker{name: "busy", stopAfter: ^uint64(0), pendingMsg: "working"}
	e.Add(w)
	e.SetWatchdog(100)
	cycles, err := e.Run(2_000, func() bool { return w.work >= 1_500 })
	if err != nil {
		t.Fatalf("watchdog fired on a progressing component at cycle %d: %v", cycles, err)
	}
}

// panicTicker blows up at a chosen cycle.
type panicTicker struct {
	name string
	at   uint64
}

func (p *panicTicker) Tick(now uint64) {
	if now == p.at {
		panic("injected failure")
	}
}
func (p *panicTicker) Commit(uint64)  {}
func (p *panicTicker) String() string { return p.name }

// TestParallelPanicSurfacesAsError: a component panic under the parallel
// executor becomes Run's error, naming the component and the exact cycle
// it was executing — on a wiring without cross ports (one-cycle windows),
// inside a four-cycle window of one round, and inside a per-shard round,
// in a dispatch handed to the workers and in one run inline — and Run
// stops within one window.
func TestParallelPanicSurfacesAsError(t *testing.T) {
	setProcs(t, 2)
	for _, tc := range []struct {
		name   string
		build  func() *Engine
		window uint64 // cycles the run may continue past the panic
	}{
		{"classic", func() *Engine {
			e := NewEngine()
			e.SetParallel(true)
			e.SetMaxPartitions(2)
			e.AddShard("", &panicTicker{name: "core7", at: 10})
			e.AddShard("", idleTicker{})
			return e
		}, 1},
		{"fused-epoch", func() *Engine {
			e, _, _ := buildPingPong(4, 0, true)
			e.Add(&panicTicker{name: "core7", at: 10})
			return e
		}, 4},
		{"per-shard-rounds", func() *Engine {
			e, _ := buildTriangle(0, true)
			e.Add(&panicTicker{name: "core7", at: 10})
			return e
		}, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, handoff := range []bool{true, false} {
				t.Run(fmt.Sprintf("handoff=%v", handoff), func(t *testing.T) {
					e := tc.build()
					if handoff {
						handOffAll(e)
					}
					cycles, err := e.Run(1_000, nil)
					if h, _ := e.Handoffs(); (h > 0) != handoff {
						t.Fatalf("%d dispatches handed off; want some %v", h, handoff)
					}
					if err == nil {
						t.Fatal("expected a panic-derived error")
					}
					if !strings.Contains(err.Error(), "core7") {
						t.Fatalf("error does not name the panicking component: %v", err)
					}
					if !strings.Contains(err.Error(), "injected failure") {
						t.Fatalf("error does not carry the panic value: %v", err)
					}
					if !strings.Contains(err.Error(), "panicked at cycle 10:") {
						t.Fatalf("error does not report the executing cycle 10: %v", err)
					}
					if cycles > 10+tc.window {
						t.Fatalf("run continued past the panic: stopped at %d", cycles)
					}
					// Step must be inert after a recovered panic.
					before := e.Now()
					e.Step()
					if e.Now() != before {
						t.Fatal("Step advanced after a recovered panic")
					}
				})
			}
		})
	}
}
