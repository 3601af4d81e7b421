package chip

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"smarco/internal/kernels"
)

// TestTracingIsObservationOnly: enabling the full observability stack
// (event trace + wall-time profile) must not change what the simulation
// computes — the snapshots stay byte-identical.
func TestTracingIsObservationOnly(t *testing.T) {
	run := func(observe bool) []byte {
		w := kernels.MustNew("kmp", kernels.Config{Seed: 61, Tasks: 8, Scale: 512})
		c := New(SmallConfig(), w.Mem)
		if observe {
			c.EnableTrace(0)
			c.EnableProfile()
		}
		c.Submit(w.Tasks)
		if _, err := c.Run(3_000_000); err != nil {
			t.Fatal(err)
		}
		if err := w.Check(); err != nil {
			t.Fatal(err)
		}
		return snapshotJSON(t, c.Snapshot("observe", "kmp"))
	}
	if plain, traced := run(false), run(true); !bytes.Equal(plain, traced) {
		t.Fatalf("tracing changed the snapshot:\nplain:  %s\ntraced: %s", plain, traced)
	}
}

// TestChipTraceExportsValidChromeJSON validates the end-to-end trace: a
// real workload's export parses as Chrome trace-event JSON and contains
// engine spans, partition labels, and component-emitted domain events.
func TestChipTraceExportsValidChromeJSON(t *testing.T) {
	w := kernels.MustNew("kmp", kernels.Config{Seed: 67, Tasks: 4, Scale: 256})
	c := New(SmallConfig(), w.Mem)
	tr := c.EnableTrace(0)
	c.Submit(w.Tasks)
	if _, err := c.Run(3_000_000); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var got struct {
		TraceEvents []struct {
			Ph   string          `json:"ph"`
			Name string          `json:"name"`
			Cat  string          `json:"cat"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	cats := map[string]bool{}
	var labels []string
	for _, ev := range got.TraceEvents {
		names[ev.Name] = true
		cats[ev.Cat] = true
		if ev.Ph == "M" && ev.Name == "process_name" {
			labels = append(labels, string(ev.Args))
		}
	}
	for _, want := range []string{"active", "sleep", "deliver"} {
		if !names[want] {
			t.Fatalf("trace missing %q engine events", want)
		}
	}
	// Domain events from at least the cores and schedulers must be present
	// on a task-running workload.
	for _, want := range []string{"task", "sched"} {
		if !cats[want] {
			t.Fatalf("trace missing %q domain events (cats: %v)", want, cats)
		}
	}
	joined := strings.Join(labels, " ")
	for _, want := range []string{"sub0", "mc0", "mainring", "sched"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("shard label %q missing: %s", want, joined)
		}
	}
	if tr.Dropped() != 0 {
		t.Logf("note: %d events dropped under default cap", tr.Dropped())
	}
}

// TestSnapshotJSONRoundTrips: a run's record renders as valid JSON
// carrying the headline metrics in its snapshot and the profiler's
// attribution in the run report beside it.
func TestSnapshotJSONRoundTrips(t *testing.T) {
	w := kernels.MustNew("rnc", kernels.Config{Seed: 71, Tasks: 8})
	c := New(SmallConfig(), w.Mem)
	c.EnableProfile()
	c.Submit(w.Tasks)
	if _, err := c.Run(3_000_000); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(c.Record("unit-test", "rnc seed=71 tasks=8"))
	if err != nil {
		t.Fatal(err)
	}
	var back Record
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("record is not valid JSON: %v", err)
	}
	snap, run := back.Snapshot, back.Run
	if snap.Label != "unit-test" || snap.Cycles != c.Now() || snap.Cycles == 0 {
		t.Fatalf("round-trip lost fields: %+v", snap)
	}
	if snap.Chip.Cores != 16 || snap.Chip.Topology != "ring" {
		t.Fatalf("chip summary wrong: %+v", snap.Chip)
	}
	if snap.Metrics.TasksDone != 8 || snap.Metrics.Instructions == 0 {
		t.Fatalf("metrics missing from snapshot: %+v", snap.Metrics)
	}
	// One row per shard: sub-rings, MCs, the main ring, the scheduler — in
	// the snapshot's load table and in the run report alike.
	wantShards := len(c.SubRings) + len(c.MCs) + 2
	if len(snap.Load) != wantShards {
		t.Fatalf("load table has %d shards, want %d", len(snap.Load), wantShards)
	}
	if len(run.Profile) != wantShards || len(run.Load) != wantShards || len(run.Windows) != wantShards {
		t.Fatalf("run report rows: %d profile, %d load, %d windows, want %d each",
			len(run.Profile), len(run.Load), len(run.Windows), wantShards)
	}
	if run.Partitions != 1 || run.Lookahead != 1 {
		t.Fatalf("run report: %d partitions at lookahead %d, want 1 and 1", run.Partitions, run.Lookahead)
	}
	var share, tickShare float64
	var ticks uint64
	for i, pp := range run.Profile {
		share += pp.Share
		tickShare += pp.TickShare
		ticks += pp.Ticks
		if pp.Label != snap.Load[i].Label || pp.Ticks != snap.Load[i].Ticks {
			t.Fatalf("profile row %d disagrees with the load table: %+v vs %+v", i, pp, snap.Load[i])
		}
	}
	if share < 0.999 || share > 1.001 {
		t.Fatalf("profile shares sum to %v", share)
	}
	if tickShare < 0.999 || tickShare > 1.001 {
		t.Fatalf("tick shares sum to %v", tickShare)
	}
	if ticks == 0 {
		t.Fatal("no component ticks recorded in the load table")
	}
}
