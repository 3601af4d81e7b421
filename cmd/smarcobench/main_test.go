package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// TestSuiteSnapshotReencodes: the recorded BENCH_suite.json decodes into the
// schema and encodes back to the same bytes, so appending an entry leaves
// the older entries exactly as they were recorded.
func TestSuiteSnapshotReencodes(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_suite.json")
	if err != nil {
		t.Fatal(err)
	}
	var snap suiteSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	out, err := json.MarshalIndent(&snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(out, '\n'), raw) {
		t.Fatalf("BENCH_suite.json does not re-encode unchanged:\n%s", out)
	}
}

// TestEngineSnapshotReencodes: the recorded BENCH_engine.json decodes into
// the schema and encodes back to the same bytes, so the -engine refresh,
// which rewrites the whole file, leaves the older entries exactly as they
// were recorded (record-only fields such as global_window included).
func TestEngineSnapshotReencodes(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_engine.json")
	if err != nil {
		t.Fatal(err)
	}
	var snap engineSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	out, err := json.MarshalIndent(&snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(out, '\n'), raw) {
		t.Fatalf("BENCH_engine.json does not re-encode unchanged:\n%s", out)
	}
}
