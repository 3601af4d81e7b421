package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"syscall"
)

// metricSpec names one reported metric and its unit. The lists below mirror
// BENCHMARK.json; TestSpecsMatchBenchmarkJSON keeps the two in step.
type metricSpec struct{ name, unit string }

// endToEnd is what a user of the simulator sees, reported with --trace 0.
var endToEnd = []metricSpec{
	{"total_s", "s"},
	{"setup_s", "s"},
	{"sim_cycles_per_s", "cycles/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer is the ledger of the traced run (--trace 1), one group per module.
// A layer the workload does not reach from outside reads 0 (see unreached).
var perLayer = []metricSpec{
	{"sim.overhead_ns_per_cycle", "ns/cycle"},
	{"sim.epochs", "count"},
	{"sim.partitions", "count"},
	{"sim.tick_ratio", "ratio"},
	{"sub.ns_per_cycle", "ns/cycle"},
	{"sub.ticks", "count"},
	{"mc.ns_per_cycle", "ns/cycle"},
	{"mc.ticks", "count"},
	{"mainring.ns_per_cycle", "ns/cycle"},
	{"mainring.ticks", "count"},
	{"sched.ns_per_cycle", "ns/cycle"},
	{"sched.ticks", "count"},
	{"chip.sim_cycles", "cycles"},
	{"cpu.instructions", "count"},
	{"cpu.ipc", "instr/cycle"},
	{"cpu.load_lat_mean", "cycles"},
	{"cpu.load_lat_p95", "cycles"},
	{"noc.packets_moved", "count"},
	{"noc.subring_util", "ratio"},
	{"noc.mainring_util", "ratio"},
	{"mact.collected", "count"},
	{"mact.batches", "count"},
	{"mact.bypassed", "count"},
	{"dram.requests", "count"},
	{"dram.row_hit_rate", "ratio"},
	{"dram.bus_bytes", "bytes"},
	{"sched.tasks_done", "count"},
	{"kernels.new_s", "s"},
	{"chip.build_s", "s"},
	{"chip.submit_s", "s"},
	{"chip.run_s", "s"},
	{"kernels.check_s", "s"},
	{"experiments.fig17_s", "s"},
	{"experiments.fig20_s", "s"},
	{"experiments.fig22_s", "s"},
	{"runner.workers", "count"},
	{"go.gc_cycles", "count"},
	{"go.alloc_mb", "MB"},
	{"trace.overhead_s", "s"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricsFor pairs every spec with its measured value. A missing, unknown or
// non-finite value is an error, so a result always carries exactly the names
// BENCHMARK.json declares.
func metricsFor(specs []metricSpec, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", s.name, v)
		}
		out[s.name] = metric{Value: v, Unit: s.unit}
	}
	var unknown []string
	for name := range values {
		if _, ok := out[name]; !ok {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("metrics %v are not declared", unknown)
	}
	return out, nil
}

// unreached sets every per-layer metric the workload did not measure to 0.
func unreached(values map[string]float64) {
	for _, s := range perLayer {
		if _, ok := values[s.name]; !ok {
			values[s.name] = 0
		}
	}
}

// median returns the median of f over xs (0 for none).
func median[T any](xs []T, f func(T) float64) float64 {
	v := make([]float64, len(xs))
	for i, x := range xs {
		v[i] = f(x)
	}
	slices.Sort(v)
	switch n := len(v); {
	case n == 0:
		return 0
	case n%2 == 1:
		return v[n/2]
	default:
		return (v[n/2-1] + v[n/2]) / 2
	}
}

// peakRSSMB is the process's peak resident set size; Linux reports
// ru_maxrss in KiB.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil
}
