package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"smarco/internal/sim"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestTickRatio(t *testing.T) {
	load := []sim.ShardLoad{
		{Label: "sub0", Components: 4, Ticks: 10},
		{Label: "mc0", Components: 6, Ticks: 30},
	}
	if got := tickRatio(load, 10); !near(got, 0.4) {
		t.Errorf("tickRatio = %v, want 40 ticks / (10 components × 10 cycles) = 0.4", got)
	}
	if got := tickRatio(load, 0); got != 0 {
		t.Errorf("tickRatio over 0 cycles = %v, want 0", got)
	}
	if got := tickRatio(nil, 10); got != 0 {
		t.Errorf("tickRatio of no shards = %v, want 0", got)
	}
}

func TestOverheadNsPerCycle(t *testing.T) {
	rows := []sim.PartitionProfile{
		{Label: "sub0", TotalSeconds: 1.0},
		{Label: "mc0", TotalSeconds: 0.5},
	}
	const cycles = 1_000_000
	for _, tc := range []struct {
		partitions int
		want       float64 // ns per cycle
	}{
		{1, (1*2.0 - 1.5) * 1e9 / cycles}, // 500: the serial loop outside shard phases
		{2, (2*2.0 - 1.5) * 1e9 / cycles}, // 2500: both partitions' goroutines span the run
	} {
		if got := overheadNsPerCycle(tc.partitions, 2.0, rows, cycles); !near(got, tc.want) {
			t.Errorf("overheadNsPerCycle(%d partitions) = %v, want %v", tc.partitions, got, tc.want)
		}
	}
}

func TestPartitionCount(t *testing.T) {
	serial := []sim.ShardLoad{{Partition: 0}, {Partition: 0}}
	parallel := []sim.ShardLoad{{Partition: 1}, {Partition: 0}, {Partition: 1}}
	if got := partitionCount(serial); got != 1 {
		t.Errorf("serial partitionCount = %d, want 1", got)
	}
	if got := partitionCount(parallel); got != 2 {
		t.Errorf("parallel partitionCount = %d, want 2", got)
	}
}

func TestShardClassGrouping(t *testing.T) {
	for label, want := range map[string]string{
		"sub0": "sub", "sub15": "sub", "mc3": "mc", "mainring": "mainring", "sched": "sched",
	} {
		if got := shardClass(label); got != want {
			t.Errorf("shardClass(%q) = %q, want %q", label, got, want)
		}
	}
	costs := classCosts([]sim.PartitionProfile{
		{Label: "sub0", TotalSeconds: 1, Ticks: 5},
		{Label: "sub1", TotalSeconds: 2, Ticks: 7},
		{Label: "mc0", TotalSeconds: 0.5, Ticks: 3},
		{Label: "mainring", TotalSeconds: 0.25, Ticks: 2},
		{Label: "sched", TotalSeconds: 0.125, Ticks: 1},
	})
	want := map[string]classCost{
		"sub": {3, 12}, "mc": {0.5, 3}, "mainring": {0.25, 2}, "sched": {0.125, 1},
	}
	if len(costs) != len(want) {
		t.Fatalf("classCosts = %v, want %v", costs, want)
	}
	for class, w := range want {
		if got := costs[class]; !near(got.seconds, w.seconds) || got.ticks != w.ticks {
			t.Errorf("class %s = %+v, want %+v", class, got, w)
		}
	}
}

// The name and unit alphabets BENCHMARK.json accepts.
var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, specs := range [][]metricSpec{endToEnd, perLayer} {
		for _, s := range specs {
			if !nameRE.MatchString(s.name) {
				t.Errorf("metric name %q is outside the allowed alphabet", s.name)
			}
			if !unitRE.MatchString(s.unit) {
				t.Errorf("unit %q of %s is outside the allowed alphabet", s.unit, s.name)
			}
			if seen[s.name] {
				t.Errorf("metric %s is declared twice", s.name)
			}
			seen[s.name] = true
		}
	}
	for _, bad := range []string{"", "_total", "total s", "total/s", strings.Repeat("a", 65)} {
		if nameRE.MatchString(bad) {
			t.Errorf("name %q should be rejected", bad)
		}
	}
	for _, class := range shardClasses {
		for _, suffix := range []string{".ns_per_cycle", ".ticks"} {
			if !seen[class+suffix] {
				t.Errorf("shard class %s has no %s metric", class, suffix)
			}
		}
	}
}

func TestMetricsFor(t *testing.T) {
	specs := []metricSpec{{"a", "s"}, {"b", "count"}}
	m, err := metricsFor(specs, map[string]float64{"a": 1.5, "b": 2})
	if err != nil || m["a"] != (metric{1.5, "s"}) || m["b"] != (metric{2, "count"}) {
		t.Fatalf("metricsFor = %v, %v", m, err)
	}
	for _, values := range []map[string]float64{
		{"a": 1},                 // missing b
		{"a": 1, "b": 2, "c": 3}, // undeclared c
		{"a": math.NaN(), "b": 2},
		{"a": math.Inf(1), "b": 2},
	} {
		if _, err := metricsFor(specs, values); err == nil {
			t.Errorf("metricsFor(%v) succeeded, want an error", values)
		}
	}
}

func TestMedian(t *testing.T) {
	id := func(x float64) float64 { return x }
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0}, {[]float64{3}, 3}, {[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs, id); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// TestSpecsMatchBenchmarkJSON keeps the driver's metric and workload lists
// identical to the ones BENCHMARK.json declares.
func TestSpecsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type spec struct{ Name, Unit string }
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []spec `json:"end_to_end"`
		PerLayer  []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, declared []spec, specs []metricSpec) {
		if len(declared) != len(specs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the driver %d", kind, len(declared), len(specs))
			return
		}
		for i, s := range specs {
			if declared[i].Name != s.name || declared[i].Unit != s.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the driver %s (%s)",
					kind, i, declared[i].Name, declared[i].Unit, s.name, s.unit)
			}
		}
	}
	compare("end_to_end", bj.EndToEnd, endToEnd)
	compare("per_layer", bj.PerLayer, perLayer)
	var declared, driver []string
	for _, w := range bj.Workloads {
		declared = append(declared, w.Name)
	}
	for name := range workloads {
		driver = append(driver, name)
	}
	sort.Strings(declared)
	sort.Strings(driver)
	if len(declared) != len(driver) {
		t.Fatalf("workloads: BENCHMARK.json has %v, the driver %v", declared, driver)
	}
	for i := range declared {
		if declared[i] != driver[i] {
			t.Errorf("workloads: BENCHMARK.json has %v, the driver %v", declared, driver)
			break
		}
	}
}
