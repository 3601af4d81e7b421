package sim

import (
	"testing"
	"testing/quick"
)

// counterTicker stages an increment in Tick and publishes it in Commit, so a
// same-cycle reader never sees the new value.
type counterTicker struct {
	visible uint64
	staged  uint64
}

func (c *counterTicker) Tick(uint64)   { c.staged = c.visible + 1 }
func (c *counterTicker) Commit(uint64) { c.visible = c.staged }

// readerTicker records what it observed of its peer during Tick.
type readerTicker struct {
	peer     *counterTicker
	observed []uint64
}

func (r *readerTicker) Tick(uint64)   { r.observed = append(r.observed, r.peer.visible) }
func (r *readerTicker) Commit(uint64) {}

func TestEngineTwoPhaseVisibility(t *testing.T) {
	c := &counterTicker{}
	r := &readerTicker{peer: c}
	e := NewEngine()
	// Reader registered before the writer: with single-phase semantics it
	// would observe stale values only by ordering luck; two-phase semantics
	// guarantee it sees the previous cycle's commit regardless of order.
	e.Add(r, c)
	for i := 0; i < 5; i++ {
		e.Step()
	}
	want := []uint64{0, 1, 2, 3, 4}
	for i, w := range want {
		if r.observed[i] != w {
			t.Fatalf("cycle %d: observed %d, want %d", i, r.observed[i], w)
		}
	}
}

func TestEngineOrderIndependence(t *testing.T) {
	run := func(swap bool) []uint64 {
		c := &counterTicker{}
		r := &readerTicker{peer: c}
		e := NewEngine()
		if swap {
			e.Add(c, r)
		} else {
			e.Add(r, c)
		}
		for i := 0; i < 8; i++ {
			e.Step()
		}
		return r.observed
	}
	a, b := run(false), run(true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ordering changed results at cycle %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestEngineRunStopsOnDone(t *testing.T) {
	c := &counterTicker{}
	e := NewEngine()
	e.Add(c)
	stop, err := e.Run(1000, func() bool { return c.visible >= 10 })
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if stop != 10 {
		t.Fatalf("stopped at cycle %d, want 10", stop)
	}
}

func TestEngineRunBudgetExhausted(t *testing.T) {
	e := NewEngine()
	e.Add(&counterTicker{})
	if _, err := e.Run(5, func() bool { return false }); err == nil {
		t.Fatal("expected budget-exhausted error")
	}
	if e.Now() != 5 {
		t.Fatalf("engine advanced %d cycles, want 5", e.Now())
	}
}

// portSender sends a deterministic message stream during Tick over a
// cross-shard port (see addSink).
type portSender struct {
	id   uint64
	port *Port[uint64]
	sent uint64
}

func (s *portSender) Tick(now uint64) {
	for i := uint64(0); i < 3; i++ {
		s.port.SendFrom(s.id, i, now, s.id*1000+now*10+i)
		s.sent++
	}
}
func (s *portSender) Commit(uint64) {}

// sink owns a port that senders in other shards share, and leaves what
// arrives in its queue for the test to drain.
type sink struct{}

func (*sink) Tick(uint64)   {}
func (*sink) Commit(uint64) {}

// addSink registers port as a cross-shard port owned by a sink in its own
// shard, so senders in every other shard may share it: components in
// different shards interact only through cross-shard ports.
func addSink(e *Engine, port *Port[uint64]) {
	s := &sink{}
	e.AddShard("sink", s)
	e.AddCrossPortFor(s, port)
}

// TestParallelMatchesSerial: the same wiring delivers the identical message
// history on one partition and on 2, 3 and 4 (a real multi-partition
// assignment even on a single-CPU host) or one per CPU.
func TestParallelMatchesSerial(t *testing.T) {
	build := func(parts int) (*Engine, *Port[uint64]) {
		e := NewEngine()
		e.SetMaxPartitions(parts)
		port := NewPort[uint64](0)
		for p := 0; p < 8; p++ {
			senders := make([]Ticker, 0, 4)
			for s := 0; s < 4; s++ {
				senders = append(senders, &portSender{id: uint64(p*4 + s), port: port})
			}
			e.AddShard("", senders...)
		}
		addSink(e, port)
		return e, port
	}
	eS, pS := build(1)
	for c := 0; c < 20; c++ {
		eS.Step()
	}
	want := pS.DrainInto(nil, 0)
	for _, parts := range []int{2, 3, 4, 0} {
		eP, pP := build(parts)
		for c := 0; c < 20; c++ {
			eP.Step()
		}
		got := pP.DrainInto(nil, 0)
		if len(got) != len(want) {
			t.Fatalf("parts=%d: message counts differ: %d vs %d", parts, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("parts=%d: message %d differs: %d, one partition %d", parts, i, got[i], want[i])
			}
		}
	}
}

type funcTicker struct {
	tick   func(uint64)
	commit func(uint64)
}

func (f *funcTicker) Tick(now uint64)   { f.tick(now) }
func (f *funcTicker) Commit(now uint64) { f.commit(now) }

func TestPortDeterministicOrdering(t *testing.T) {
	p := NewPort[int](0)
	// Stage out of key order; commit must sort by (key, seq).
	p.Send(2, 0, 20)
	p.Send(1, 1, 11)
	p.Send(1, 0, 10)
	p.Send(0, 0, 0)
	p.Commit(0)
	got := p.DrainInto(nil, 0)
	want := []int{0, 10, 11, 20}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: got %d want %d", i, got[i], want[i])
		}
	}
}

func TestPortPopAndPeek(t *testing.T) {
	p := NewPort[string](0)
	if _, ok := p.Pop(); ok {
		t.Fatal("pop on empty port succeeded")
	}
	p.Send(0, 0, "a")
	p.Send(0, 1, "b")
	p.Commit(0)
	if v, ok := p.Peek(); !ok || v != "a" {
		t.Fatalf("peek = %q, %v", v, ok)
	}
	if v, _ := p.Pop(); v != "a" {
		t.Fatalf("pop = %q, want a", v)
	}
	if v, _ := p.Pop(); v != "b" {
		t.Fatalf("pop = %q, want b", v)
	}
	if p.Len() != 0 {
		t.Fatalf("len = %d, want 0", p.Len())
	}
}

func TestPortCapacityHint(t *testing.T) {
	p := NewPort[int](2)
	if !p.CanAccept(2) {
		t.Fatal("empty port should accept 2")
	}
	p.Send(0, 0, 1)
	// CanAccept is committed-state only: staged messages (possibly from
	// other partitions' senders) must not influence the answer, or credit
	// decisions would depend on tick order.
	if !p.CanAccept(2) {
		t.Fatal("staged messages must not count against committed capacity")
	}
	p.Commit(0)
	p.Send(0, 0, 2)
	p.Commit(0)
	if p.CanAccept(1) {
		t.Fatal("full port must not accept")
	}
}

func TestPortCanAcceptFromCountsOwnStagedOnly(t *testing.T) {
	p := NewPort[int](2)
	// Sender 1 stages one message; its own follow-up must count it.
	p.Send(1, 0, 10)
	if !p.CanAcceptFrom(1, 1) {
		t.Fatal("one committed slot should remain for sender 1")
	}
	p.Send(1, 1, 11)
	if p.CanAcceptFrom(1, 1) {
		t.Fatal("sender 1 already staged to capacity")
	}
	// A different sender's view ignores sender 1's staged traffic: the
	// decision must be identical whether or not sender 1 ticked first.
	if !p.CanAcceptFrom(2, 2) {
		t.Fatal("sender 2's credit must not depend on sender 1's staged messages")
	}
	p.Commit(0)
	if p.CanAcceptFrom(2, 1) {
		t.Fatal("committed-full port must reject")
	}
}

// quiesceTicker counts its ticks and quiesces when it has no pending work,
// optionally scheduling a timed wake.
type quiesceTicker struct {
	in     *Port[int]
	ticks  []uint64
	wakeAt uint64
	got    []int
}

func (q *quiesceTicker) Tick(now uint64) {
	q.ticks = append(q.ticks, now)
	for {
		v, ok := q.in.Pop()
		if !ok {
			break
		}
		q.got = append(q.got, v)
	}
}
func (q *quiesceTicker) Commit(uint64) {}
func (q *quiesceTicker) Quiescent(now uint64) (bool, uint64) {
	if !q.in.Empty() {
		return false, 0
	}
	if q.wakeAt != 0 {
		return true, q.wakeAt
	}
	return true, WakeNever
}

func TestQuiescentComponentSkippedUntilDelivery(t *testing.T) {
	e := NewEngine()
	q := &quiesceTicker{in: NewPort[int](0)}
	e.Add(q)
	e.AddPortFor(q, q.in)
	e.Step() // ticks once at cycle 0, then quiesces
	e.Step()
	e.Step()
	if len(q.ticks) != 1 || q.ticks[0] != 0 {
		t.Fatalf("expected a single tick at cycle 0, got %v", q.ticks)
	}
	// A delivery at cycle 3 must re-arm it for cycle 4.
	q.in.Send(9, 0, 42)
	e.Step() // cycle 3: port commits, wake flag set
	e.Step() // cycle 4: component ticks and drains
	if len(q.ticks) != 2 || q.ticks[1] != 4 {
		t.Fatalf("expected wake tick at cycle 4, got %v", q.ticks)
	}
	if len(q.got) != 1 || q.got[0] != 42 {
		t.Fatalf("message lost across quiescence: %v", q.got)
	}
}

func TestQuiescentTimerWake(t *testing.T) {
	e := NewEngine()
	q := &quiesceTicker{in: NewPort[int](0), wakeAt: 5}
	e.Add(q)
	e.AddPortFor(q, q.in)
	for i := 0; i < 8; i++ {
		e.Step()
	}
	// Tick at 0, sleep until 5, tick at 5, re-quiesce with the stale
	// wakeAt=5 now in the past — the engine must keep it awake rather
	// than sleep forever on an expired timer.
	want := []uint64{0, 5, 6, 7}
	if len(q.ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", q.ticks, want)
	}
	for i := range want {
		if q.ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", q.ticks, want)
		}
	}
}

func TestQuiescenceMatchesAlwaysActive(t *testing.T) {
	// A pipeline of senders feeding a quiescing consumer must produce the
	// same delivery history as the same consumer without a Quiescent
	// implementation (wrapped so the engine never sees the interface).
	type wrap struct{ Ticker }
	build := func(skip bool) *quiesceTicker {
		e := NewEngine()
		q := &quiesceTicker{in: NewPort[int](0)}
		s := &funcTicker{commit: func(uint64) {}}
		n := 0
		s.tick = func(now uint64) {
			if now%3 == 0 {
				n++
				q.in.Send(1, uint64(n), n*1000+int(now))
			}
		}
		e.Add(s)
		if skip {
			e.Add(q)
			e.AddPortFor(q, q.in)
		} else {
			e.Add(wrap{q})
			e.AddPortFor(wrap{q}, q.in)
		}
		for i := 0; i < 50; i++ {
			e.Step()
		}
		e.Settle()
		return q
	}
	a, b := build(true), build(false)
	if len(a.got) != len(b.got) {
		t.Fatalf("delivery counts differ: %d vs %d", len(a.got), len(b.got))
	}
	for i := range a.got {
		if a.got[i] != b.got[i] {
			t.Fatalf("delivery %d differs: %d vs %d", i, a.got[i], b.got[i])
		}
	}
}

func TestWorkerExecutorMatchesSerial(t *testing.T) {
	build := func(workers bool) []uint64 {
		e := NewEngine()
		if workers {
			e.SetMaxPartitions(4)
		}
		port := NewPort[uint64](0)
		for p := 0; p < 4; p++ {
			e.AddShard("", &portSender{id: uint64(p), port: port})
		}
		addSink(e, port)
		if workers {
			handOffAll(e)
			e.startWorkers()
			defer e.stopWorkers()
		}
		for i := 0; i < 10; i++ {
			e.Step()
		}
		if workers {
			checkHandedOff(t, e)
		}
		var got []uint64
		return port.DrainInto(got, 0)
	}
	a, b := build(false), build(true)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("message %d differs: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestPortDrainMax(t *testing.T) {
	p := NewPort[int](0)
	for i := 0; i < 5; i++ {
		p.Send(0, uint64(i), i)
	}
	p.Commit(0)
	first := p.DrainInto(nil, 2)
	if len(first) != 2 || first[0] != 0 || first[1] != 1 {
		t.Fatalf("drain(2) = %v", first)
	}
	rest := p.DrainInto(nil, 0)
	if len(rest) != 3 || rest[0] != 2 {
		t.Fatalf("drain rest = %v", rest)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGIntnRange(t *testing.T) {
	if err := quick.Check(func(seed uint64, n uint16) bool {
		bound := int(n%1000) + 1
		r := NewRNG(seed)
		for i := 0; i < 20; i++ {
			v := r.Intn(bound)
			if v < 0 || v >= bound {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := NewRNG(seed)
		p := r.Perm(50)
		seen := make([]bool, 50)
		for _, v := range p {
			if v < 0 || v >= 50 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}
