// Command perfbench is the repository benchmark. It drives the simulator
// through its Go API (kernels, chip, experiments), times every call from
// outside, verifies every output, and prints one JSON result as its last
// line of standard output.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload medium-kmp --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer ledger of a traced run, and the spans are written
// to .bench_build/perfbench. README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"smarco/internal/sim"
)

// workloads maps each workload name to the function that measures it and
// returns its metric values.
var workloads = map[string]func(*bench) (map[string]float64, error){
	"medium-kmp":    mediumKMP.run,
	"paper-kmeans":  paperKMeans.run,
	"figures-small": runFigures,
}

// hostFacts are recorded with every result, so a speed figure always says
// what it was measured on and which executor the chip resolved to.
type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Executor   string `json:"executor"`
	Partitions int    `json:"partitions"`
}

// bench is the state of one benchmark run.
type bench struct {
	seed      uint64
	budget    float64 // seconds
	traced    bool
	spans     *spans
	host      hostFacts
	runs      int // operations and set-ups started, for span run ids
	attempted int
	failed    int
	profile   []sim.PartitionProfile // last profiled simulation, saved with the spans
}

// nextRun returns a fresh run id for the spans of one operation or set-up.
func (b *bench) nextRun() int {
	b.runs++
	return b.runs - 1
}

// repeat calls op, which returns how long it took, until another call of
// that length would overrun the budget; it always calls op at least once.
func (b *bench) repeat(op func() float64) {
	for last := op(); b.spans.elapsed()+last <= b.budget; {
		last = op()
	}
}

// fail counts a failed operation and reports why on standard error.
func (b *bench) fail(err error) {
	b.failed++
	fmt.Fprintf(os.Stderr, "perfbench: operation failed: %v\n", err)
}

func main() {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	workload := flag.String("workload", "", "workload to measure: "+strings.Join(names, ", "))
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 30, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "0 reports the end-to-end metrics, 1 the per-layer ledger of a traced run")
	flag.Parse()
	measure, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {%s} --seed N --seconds S --trace {0|1}\n", strings.Join(names, "|"))
		os.Exit(2)
	}
	b := &bench{
		seed:   *seed,
		budget: *seconds,
		traced: *trace == 1,
		spans:  newSpans(),
		host: hostFacts{
			NProc:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
		},
	}
	res, err := report(b, *workload, measure)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// report measures the workload, prints the host facts, saves the spans of a
// traced run and assembles the result.
func report(b *bench, workload string, measure func(*bench) (map[string]float64, error)) (result, error) {
	values, err := measure(b)
	if err != nil {
		return result{}, err
	}
	specs := endToEnd
	if b.traced {
		specs = perLayer
	}
	metrics, err := metricsFor(specs, values)
	if err != nil {
		return result{}, err
	}
	host, err := json.Marshal(map[string]any{"workload": workload, "seed": b.seed, "host": b.host})
	if err != nil {
		return result{}, err
	}
	fmt.Println(string(host))
	if b.traced {
		if err := writeTrace(b, workload); err != nil {
			return result{}, err
		}
	}
	return result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics}, nil
}

// traceDir is where a traced run writes its spans, relative to the repository
// root run.sh runs the benchmark from.
const traceDir = ".bench_build/perfbench"

// writeTrace saves the spans, the host facts and the last shard profile.
func writeTrace(b *bench, workload string) error {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Workload string                 `json:"workload"`
		Seed     uint64                 `json:"seed"`
		Host     hostFacts              `json:"host"`
		Spans    []span                 `json:"spans"`
		Profile  []sim.PartitionProfile `json:"profile,omitempty"`
	}{workload, b.seed, b.host, b.spans.list, b.profile}, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("trace-%s-seed%d.json", workload, b.seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	return nil
}
