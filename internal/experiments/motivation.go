package experiments

import (
	"fmt"
	"sort"

	"smarco/internal/conv"
	"smarco/internal/htc"
	"smarco/internal/kernels"
	"smarco/internal/runner"
	"smarco/internal/stats"
)

// Fig01Point is one thread-count measurement of the conventional-processor
// study (Fig. 1a/1b).
type Fig01Point struct {
	Threads     int
	IdleRatio   float64
	StarveRatio float64
}

// Fig01Result is the Fig. 1a/1b series for one benchmark.
type Fig01Result struct {
	Benchmark string
	Points    []Fig01Point
}

// fig01Benchmarks are the benchmarks of the conventional-processor study.
var fig01Benchmarks = []string{"kmp", "wordcount", "search"}

// Fig01ThreadScaling reproduces Fig. 1a/1b: idle ratio and instruction
// starvation of the conventional processor as the thread count grows.
func Fig01ThreadScaling(scale Scale, seed uint64) ([]Fig01Result, error) {
	threadCounts := []int{1, 2, 4, 8, 16, 32, 64, 128}
	tasks, work := 128, 1024
	if scale == ScalePaper {
		tasks, work = 256, 4096
	}
	// Benchmark × thread-count grid on the run pool.
	nT := len(threadCounts)
	points, err := runner.Map(pool, len(fig01Benchmarks)*nT, func(i int) (Fig01Point, error) {
		name, n := fig01Benchmarks[i/nT], threadCounts[i%nT]
		w := kernels.MustNew(name, kernels.Config{Seed: seed, Tasks: tasks, Scale: work})
		r, err := runOnXeon(conv.XeonE78890V4(), w, n)
		if err != nil {
			return Fig01Point{}, fmt.Errorf("fig1ab %s threads=%d: %w", name, n, err)
		}
		return Fig01Point{Threads: n, IdleRatio: r.IdleRatio, StarveRatio: r.StarveRatio}, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]Fig01Result, len(fig01Benchmarks))
	for bi, name := range fig01Benchmarks {
		out[bi] = Fig01Result{Benchmark: name, Points: points[bi*nT : (bi+1)*nT : (bi+1)*nT]}
	}
	return out, nil
}

// Fig01Cache is the Fig. 1c/1d data: per-level miss ratios and average
// access latencies on the conventional hierarchy.
type Fig01Cache struct {
	Benchmark                  string
	L1Miss, L2Miss, LLCMiss    float64
	L1AvgLat, L2AvgLat, LLCLat float64
}

// Fig01CacheHierarchy reproduces Fig. 1c/1d at high concurrency.
func Fig01CacheHierarchy(scale Scale, seed uint64) ([]Fig01Cache, error) {
	tasks, work := 128, 2048
	if scale == ScalePaper {
		tasks, work = 256, 8192
	}
	return runner.Map(pool, len(fig01Benchmarks), func(i int) (Fig01Cache, error) {
		name := fig01Benchmarks[i]
		w := kernels.MustNew(name, kernels.Config{Seed: seed, Tasks: tasks, Scale: work})
		r, err := runOnXeon(conv.XeonE78890V4(), w, 64)
		if err != nil {
			return Fig01Cache{}, fmt.Errorf("fig1cd %s: %w", name, err)
		}
		return Fig01Cache{
			Benchmark: name,
			L1Miss:    r.L1Miss, L2Miss: r.L2Miss, LLCMiss: r.LLCMiss,
			L1AvgLat: r.L1AvgLat, L2AvgLat: r.L2AvgLat, LLCLat: r.LLCLat,
		}, nil
	})
}

// Fig02CDN reproduces the CDN characterization.
func Fig02CDN(seed uint64) []htc.CDNPoint {
	return htc.CDNSweep(htc.DefaultCDN(), seed)
}

// Fig08Row is one application's access-granularity distribution.
type Fig08Row struct {
	App          string
	Conventional bool
	Dist         htc.Distribution
}

// Fig08Granularity reproduces both halves of Fig. 8.
func Fig08Granularity(seed uint64) ([]Fig08Row, error) {
	htcProfiles, err := htc.HTCProfiles(seed)
	if err != nil {
		return nil, err
	}
	var rows []Fig08Row
	for _, name := range kernels.Names {
		rows = append(rows, Fig08Row{App: name, Dist: htcProfiles[name]})
	}
	splash := htc.SplashProfiles()
	names := make([]string, 0, len(splash))
	for n := range splash {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		rows = append(rows, Fig08Row{App: n, Conventional: true, Dist: splash[n]})
	}
	return rows, nil
}

// Fig01Table renders Fig. 1a/1b as a table.
func Fig01Table(results []Fig01Result) *stats.Table {
	t := stats.NewTable("Fig. 1a/1b — conventional processor vs thread count",
		"benchmark", "threads", "idle ratio", "starvation ratio")
	for _, r := range results {
		for _, p := range r.Points {
			t.AddRow(r.Benchmark, p.Threads, p.IdleRatio, p.StarveRatio)
		}
	}
	return t
}

// Fig01CacheTable renders Fig. 1c/1d.
func Fig01CacheTable(rows []Fig01Cache) *stats.Table {
	t := stats.NewTable("Fig. 1c/1d — cache hierarchy under HTC load (64 threads)",
		"benchmark", "L1 miss", "L2 miss", "LLC miss", "L1 lat", "L2 lat", "LLC lat")
	for _, r := range rows {
		t.AddRow(r.Benchmark, r.L1Miss, r.L2Miss, r.LLCMiss, r.L1AvgLat, r.L2AvgLat, r.LLCLat)
	}
	return t
}

// Fig02Table renders Fig. 2.
func Fig02Table(points []htc.CDNPoint) *stats.Table {
	t := stats.NewTable("Fig. 2 — CDN on a conventional processor",
		"clients", "goodput (Gb/s)", "CPU util", "branch miss", "L1 miss")
	for _, p := range points {
		t.AddRow(p.Clients, p.GoodputGbs, p.CPUUtil, p.BranchMiss, p.L1Miss)
	}
	return t
}

// Fig08Table renders Fig. 8.
func Fig08Table(rows []Fig08Row) *stats.Table {
	t := stats.NewTable("Fig. 8 — memory access granularity distribution",
		"app", "class", "1B", "2B", "4B", "8B")
	for _, r := range rows {
		class := "HTC"
		if r.Conventional {
			class = "conventional"
		}
		t.AddRow(r.App, class, r.Dist[1], r.Dist[2], r.Dist[4], r.Dist[8])
	}
	return t
}
