package sim

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// chromeTrace mirrors the Chrome trace-event "JSON object format" enough
// to validate the exporter's output with the standard decoder.
type chromeTrace struct {
	TraceEvents []struct {
		Ph   string `json:"ph"`
		Pid  int    `json:"pid"`
		Tid  int    `json:"tid"`
		Name string `json:"name"`
		Cat  string `json:"cat"`
		Ts   uint64 `json:"ts"`
		Dur  uint64 `json:"dur"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

// tracedScenario runs the quiesce/wake scenario from
// TestQuiescentComponentSkippedUntilDelivery with an optional trace and
// returns the consumer's tick history plus the engine.
func tracedScenario(tr *Trace) (*quiesceTicker, *Engine) {
	e := NewEngine()
	q := &quiesceTicker{in: NewPort[int](0)}
	e.Add(q)
	e.AddPortFor(q, q.in)
	if tr != nil {
		e.SetTrace(tr)
	}
	e.Step()
	e.Step()
	q.in.Send(9, 0, 42)
	e.Step() // delivery commits, wake flag set
	e.Step() // consumer ticks and drains
	e.Step()
	return q, e
}

func TestTraceExportsValidChromeJSON(t *testing.T) {
	tr := NewTrace(0)
	_, e := tracedScenario(tr)
	tr.Emit("test", "custom-event", e.Now())

	var buf bytes.Buffer
	if err := e.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var got chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("exporter produced invalid JSON: %v\n%s", err, buf.String())
	}
	if len(got.TraceEvents) == 0 {
		t.Fatal("no events exported")
	}
	kinds := map[string]int{}
	for _, ev := range got.TraceEvents {
		kinds[ev.Ph+":"+ev.Name]++
		switch ev.Ph {
		case "X", "i", "M":
		default:
			t.Fatalf("unexpected phase %q in %+v", ev.Ph, ev)
		}
	}
	// The scenario sleeps and is woken by a delivery, so the trace must
	// contain a sleep span, a delivery-wake instant, the delivery itself,
	// thread metadata, and the custom event.
	for _, want := range []string{"X:sleep", "i:wake:deliver", "i:deliver", "M:thread_name", "i:custom-event"} {
		if kinds[want] == 0 {
			t.Fatalf("missing %s event; got %v", want, kinds)
		}
	}
	if tr.Dropped() != 0 {
		t.Fatalf("dropped %d events under the default cap", tr.Dropped())
	}
}

func TestTraceDoesNotPerturbSimulation(t *testing.T) {
	plain, _ := tracedScenario(nil)
	traced, _ := tracedScenario(NewTrace(0))
	if len(plain.ticks) != len(traced.ticks) {
		t.Fatalf("tick counts diverged: %v vs %v", plain.ticks, traced.ticks)
	}
	for i := range plain.ticks {
		if plain.ticks[i] != traced.ticks[i] {
			t.Fatalf("tick history diverged at %d: %v vs %v", i, plain.ticks, traced.ticks)
		}
	}
	if len(plain.got) != len(traced.got) || plain.got[0] != traced.got[0] {
		t.Fatalf("deliveries diverged: %v vs %v", plain.got, traced.got)
	}
}

func TestTraceBoundedByEventCap(t *testing.T) {
	tr := NewTrace(2)
	q, e := tracedScenario(tr)
	// Pump more wake/sleep transitions to overflow the 2-event cap.
	for i := 0; i < 20; i++ {
		q.in.Send(9, uint64(i), i)
		e.Step()
		e.Step()
	}
	if tr.Dropped() == 0 {
		t.Fatal("cap of 2 events never dropped anything")
	}
	for pi := range tr.bufs {
		if len(tr.bufs[pi]) > 2 {
			t.Fatalf("partition %d holds %d events, cap 2", pi, len(tr.bufs[pi]))
		}
	}
	// Export must still be valid JSON after drops.
	var buf bytes.Buffer
	if err := e.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var got chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("truncated trace invalid: %v", err)
	}
}

func TestTraceEmitEscapesJSON(t *testing.T) {
	tr := NewTrace(0)
	_, e := tracedScenario(tr)
	tr.Emit("cat\"x", "quote\" backslash\\ control\x01", 3)
	var buf bytes.Buffer
	if err := e.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var got chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("escaping failed: %v\n%s", err, buf.String())
	}
	found := false
	for _, ev := range got.TraceEvents {
		if ev.Cat == "cat\"x" && strings.HasPrefix(ev.Name, "quote\" backslash\\") {
			found = true
		}
	}
	if !found {
		t.Fatal("escaped custom event did not round-trip")
	}
}

func TestProfileAttributesPhases(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		e := NewEngine()
		e.SetParallel(parallel)
		port := NewPort[uint64](0)
		for p := 0; p < 4; p++ {
			e.AddShard("", &portSender{id: uint64(p), port: port})
		}
		addSink(e, port)
		prof := NewProfile()
		e.SetProfile(prof)
		if _, err := e.Run(200, func() bool { return false }); err == nil {
			t.Fatal("expected budget error")
		}
		if prof.Steps() != 200 {
			t.Fatalf("parallel=%v: steps = %d, want 200", parallel, prof.Steps())
		}
		parts := prof.Partitions()
		if len(parts) != 5 {
			t.Fatalf("parallel=%v: %d shard rows, want 5 (four senders and the sink)", parallel, len(parts))
		}
		var total, share float64
		for _, pp := range parts {
			total += pp.TotalSeconds
			share += pp.Share
		}
		if total <= 0 {
			t.Fatalf("parallel=%v: no wall time attributed", parallel)
		}
		if share < 0.999 || share > 1.001 {
			t.Fatalf("parallel=%v: shares sum to %v", parallel, share)
		}
		if s := prof.String(); !strings.Contains(s, "load imbalance") {
			t.Fatalf("report missing imbalance line:\n%s", s)
		}
	}
}

func TestProfiledSerialMatchesUnprofiled(t *testing.T) {
	run := func(profile bool) []uint64 {
		e := NewEngine()
		port := NewPort[uint64](0)
		for p := 0; p < 2; p++ {
			e.AddShard("", &portSender{id: uint64(p), port: port})
		}
		addSink(e, port)
		if profile {
			e.SetProfile(NewProfile())
		}
		for i := 0; i < 10; i++ {
			e.Step()
		}
		return port.DrainInto(nil, 0)
	}
	a, b := run(false), run(true)
	if len(a) != len(b) {
		t.Fatalf("message counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("message %d differs: %d vs %d", i, a[i], b[i])
		}
	}
}
