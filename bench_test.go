// Package smarco's benchmark harness: one testing.B benchmark per table
// and figure of the paper's evaluation (see DESIGN.md's experiment index).
//
// Each benchmark regenerates its result once per iteration and reports the
// headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation at small scale. Set SMARCO_SCALE=paper
// for paper-sized configurations (much slower).
package smarco

import (
	"os"
	"testing"

	"smarco/internal/experiments"
)

func benchScale() experiments.Scale {
	if os.Getenv("SMARCO_SCALE") == "paper" {
		return experiments.ScalePaper
	}
	return experiments.ScaleSmall
}

const benchSeed = 1

func BenchmarkFig01_ConvThreadScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := experiments.Fig01ThreadScaling(benchScale(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		last := results[0].Points[len(results[0].Points)-1]
		b.ReportMetric(last.IdleRatio, "idle-ratio@128t")
		b.ReportMetric(last.StarveRatio, "starve-ratio@128t")
	}
}

func BenchmarkFig01_CacheHierarchy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig01CacheHierarchy(benchScale(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].L1Miss, "L1-miss")
		b.ReportMetric(rows[0].LLCLat, "LLC-lat-cycles")
	}
}

func BenchmarkFig02_CDN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.Fig02CDN(benchSeed)
		last := pts[len(pts)-1]
		b.ReportMetric(last.CPUUtil, "cpu-util@limit")
		b.ReportMetric(last.BranchMiss, "branch-miss@limit")
		b.ReportMetric(last.L1Miss, "L1-miss@limit")
	}
}

func BenchmarkFig08_Granularity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig08Granularity(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		var htcSmall float64
		n := 0
		for _, r := range rows {
			if !r.Conventional {
				htcSmall += r.Dist.SmallFraction(2)
				n++
			}
		}
		b.ReportMetric(htcSmall/float64(n), "htc-small-frac")
	}
}

func BenchmarkFig17_TCGIPC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := experiments.Fig17TCGIPC(benchScale(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		var at4, at8 float64
		for _, r := range results {
			at4 += r.IPC[4]
			at8 += r.IPC[8]
		}
		b.ReportMetric(at4/float64(len(results)), "mean-IPC@4t")
		b.ReportMetric(at8/float64(len(results)), "mean-IPC@8t")
	}
}

func BenchmarkFig18_HighDensityNoC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := experiments.Fig18HighDensityNoC(benchScale(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		var gain2B float64
		for _, r := range results {
			gain2B += r.Throughput[2]
		}
		b.ReportMetric(gain2B/float64(len(results)), "mean-throughput-2B/16B")
	}
}

func BenchmarkFig19_MACTThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := experiments.Fig19MACTThreshold(benchScale(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		var at16 float64
		for _, r := range results {
			at16 += r.Speedup[16]
		}
		b.ReportMetric(at16/float64(len(results)), "mean-speedup@16cy")
	}
}

func BenchmarkFig20_MACTComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := experiments.Fig20MACTComparison(benchScale(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		var speed, req float64
		for _, r := range results {
			speed += r.Speedup
			req += r.ReqRatio
		}
		n := float64(len(results))
		b.ReportMetric(speed/n, "mean-speedup")
		b.ReportMetric(req/n, "mean-request-ratio")
	}
}

func BenchmarkFig21_Scheduler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := experiments.Fig21Scheduler(benchScale(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		sw, hw := results[0], results[1]
		b.ReportMetric(float64(sw.Spread), "sw-exit-spread")
		b.ReportMetric(float64(hw.Spread), "hw-exit-spread")
		b.ReportMetric(hw.SuccessRate, "hw-success-rate")
	}
}

func BenchmarkTable1_AreaPower(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bd := Table1()
		b.ReportMetric(bd.TotalArea(), "area-mm2")
		b.ReportMetric(bd.TotalPower(), "power-W")
	}
}

func BenchmarkTable2_Configs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table2Configs().String() == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig22_VsXeon(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := experiments.Fig22VsXeon(benchScale(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		var speed, eff float64
		for _, r := range results {
			speed += r.Speedup
			eff += r.EnergyEffGain
		}
		n := float64(len(results))
		b.ReportMetric(speed/n, "mean-speedup")
		b.ReportMetric(eff/n, "mean-energy-eff-gain")
	}
}

func BenchmarkFig23_Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig23Scalability(benchScale(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		last := points[len(points)-1]
		b.ReportMetric(last.SmarCoPerf/last.XeonPerf, "smarco/xeon@max-threads")
	}
}

func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := experiments.Ablations(benchScale(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Feature == "in-pair threads" {
				b.ReportMetric(r.Gain["kmp"], "inpair-gain-kmp")
			}
			if r.Feature == "MACT" {
				b.ReportMetric(r.Gain["kmp"], "mact-gain-kmp")
			}
		}
	}
}

// BenchmarkEngineSerial and BenchmarkEngineParallel measure raw cycle-engine
// throughput (simulated cycles per wall-clock second) on the reference
// workload, with allocation counts. BENCH_engine.json records past snapshots;
// regenerate it with `go run ./cmd/smarcobench -engine` after engine work.
func BenchmarkEngineSerial(b *testing.B)   { benchmarkEngine(b, false) }
func BenchmarkEngineParallel(b *testing.B) { benchmarkEngine(b, true) }

func benchmarkEngine(b *testing.B, parallel bool) {
	for _, config := range experiments.EngineBenchConfigs {
		b.Run(config, func(b *testing.B) {
			b.ReportAllocs()
			var cycles uint64
			var wall float64
			for i := 0; i < b.N; i++ {
				r, err := experiments.MeasureEngine(config, parallel)
				if err != nil {
					b.Fatal(err)
				}
				cycles += r.Cycles
				wall += r.WallSeconds
			}
			b.ReportMetric(float64(cycles)/wall, "cycles/sec")
		})
	}
}

func BenchmarkFig26_Prototype(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := experiments.Fig26Prototype(benchScale(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		var eff float64
		for _, r := range results {
			eff += r.EnergyEffGain
		}
		b.ReportMetric(eff/float64(len(results)), "mean-energy-eff-gain")
	}
}
