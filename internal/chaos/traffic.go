// Package chaos is the rack-level fault-tolerance soak harness (DESIGN.md
// §11): an open-loop HTC traffic generator over the six paper benchmarks,
// seeded fault schedules on the card layer, and scenario runners that
// assert the dispatcher's exactly-once accounting, its determinism across
// engine partition counts and across restore-from-checkpoint, and the
// proportionality of degraded throughput after a chip kill.
package chaos

import (
	"fmt"
	"math"

	"smarco/internal/htc"
	"smarco/internal/kernels"
	"smarco/internal/mem"
	"smarco/internal/sim"
)

// TrafficConfig sizes an open-loop task stream.
type TrafficConfig struct {
	Seed  uint64
	Tasks int
	// MeanGap is the mean Poisson inter-arrival gap in chip cycles.
	// Derive it from the Fig. 2 testbed with CDNMeanGap, or set directly.
	MeanGap float64
	// Scale is the kernels' working-set knob (0 = kernel defaults).
	Scale int
	// Mix weights the six kernels; nil selects DefaultMix. Unknown kernel
	// names are rejected.
	Mix map[string]int
}

// DefaultMix is a CDN-flavoured datacenter blend (§2): the latency-critical
// serving path (network coding, pattern matching, search) dominates, with
// batch analytics underneath.
func DefaultMix() map[string]int {
	return map[string]int{
		"rnc": 4, "kmp": 4, "search": 3,
		"wordcount": 2, "terasort": 2, "kmeans": 1,
	}
}

// CDNMeanGap converts the Fig. 2 CDN testbed model into an open-loop
// arrival gap: the NIC-capped chunk service rate, batched chunksPerTask
// chunks per accelerator task, expressed in cycles of a clockHz chip.
func CDNMeanGap(cdn htc.CDNConfig, clients int, clockHz float64, chunksPerTask int) float64 {
	goodput := float64(clients) * cdn.StreamMbps / 1000
	if goodput > cdn.NICGbps {
		goodput = cdn.NICGbps
	}
	chunksPerSec := goodput * 1e9 / 8 / float64(cdn.ChunkBytes)
	if chunksPerSec <= 0 || chunksPerTask <= 0 {
		return 0
	}
	return clockHz / (chunksPerSec / float64(chunksPerTask))
}

// Traffic is a generated task stream over one shared memory image.
type Traffic struct {
	Store     *mem.Sparse
	Workloads []*kernels.Workload
	// Tasks is the merged stream in arrival order: globally unique IDs,
	// Poisson release cycles, kernels interleaved by the mix weights.
	Tasks []kernels.Task
	// Owner maps a task ID to its index in Workloads (for verification).
	Owner map[int]int
}

// arena windows: each workload builds at its own base inside the shared
// store, far below the 0x4000_0000 code region.
const trafficWindow = 0x0200_0000

// Generate builds the workloads into one shared store and merges their
// tasks into a Poisson arrival stream. Generation is a pure function of the
// config: two calls yield bit-identical streams and memory images.
func Generate(cfg TrafficConfig) (*Traffic, error) {
	if cfg.Tasks <= 0 {
		return nil, fmt.Errorf("chaos: task count %d", cfg.Tasks)
	}
	if cfg.MeanGap < 0 {
		return nil, fmt.Errorf("chaos: negative arrival gap %g", cfg.MeanGap)
	}
	mix := cfg.Mix
	if mix == nil {
		mix = DefaultMix()
	}
	total := 0
	for name, w := range mix {
		known := false
		for _, k := range kernels.Names {
			known = known || k == name
		}
		if !known {
			return nil, fmt.Errorf("chaos: unknown kernel %q in mix", name)
		}
		if w < 0 {
			return nil, fmt.Errorf("chaos: negative weight for %q", name)
		}
		total += w
	}
	if total == 0 {
		return nil, fmt.Errorf("chaos: mix has no weight")
	}

	// Deterministic apportionment in the canonical kernel order: floor of
	// the proportional share, remainder to the heaviest weights first.
	counts := make([]int, len(kernels.Names))
	assigned := 0
	for i, name := range kernels.Names {
		counts[i] = cfg.Tasks * mix[name] / total
		assigned += counts[i]
	}
	for i := 0; assigned < cfg.Tasks; i = (i + 1) % len(kernels.Names) {
		if mix[kernels.Names[i]] > 0 {
			counts[i]++
			assigned++
		}
	}

	tr := &Traffic{Store: mem.NewSparse(), Owner: map[int]int{}}
	var queues [][]kernels.Task
	for i, name := range kernels.Names {
		if counts[i] == 0 {
			continue
		}
		w, err := kernels.New(name, kernels.Config{
			Seed:  cfg.Seed ^ uint64(i+1)*0x9e3779b97f4a7c15,
			Tasks: counts[i],
			Scale: cfg.Scale,
			Mem:   tr.Store,
			Base:  0x0001_0000 + uint64(i)*trafficWindow,
		})
		if err != nil {
			return nil, fmt.Errorf("chaos: %s: %w", name, err)
		}
		tr.Workloads = append(tr.Workloads, w)
		queues = append(queues, w.Tasks)
	}

	// Weighted interleave under a Poisson clock: each arrival draws a
	// kernel proportionally to its remaining tasks, so the mix holds over
	// any window of the stream.
	rng := sim.NewRNG(cfg.Seed ^ 0xC4A0)
	remaining := cfg.Tasks
	var now float64
	id := 1
	for remaining > 0 {
		pick := rng.Intn(remaining)
		src := -1
		for qi, q := range queues {
			if pick < len(q) {
				src = qi
				break
			}
			pick -= len(q)
		}
		t := queues[src][0]
		queues[src] = queues[src][1:]
		if cfg.MeanGap > 0 {
			// Exponential gap; 1-U is in (0, 1] so the log is finite.
			now += -cfg.MeanGap * math.Log(1-rng.Float64())
		}
		t.ID = id
		t.ReleaseCycle = uint64(now)
		tr.Owner[id] = src
		tr.Tasks = append(tr.Tasks, t)
		id++
		remaining--
	}
	return tr, nil
}
