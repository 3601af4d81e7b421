package kernels

import (
	"fmt"
	"math"

	"smarco/internal/isa"
	"smarco/internal/sim"
)

// kmeansSrc runs one assignment step of Lloyd's algorithm over a block of
// points: find the nearest centroid by squared Euclidean distance, record
// the assignment, and accumulate per-cluster coordinate sums and counts for
// the centroid update. All data are float64. Arguments:
//
//	a0 points base (n×d f64)   a1 point count
//	a2 centroid base (k×d f64) a3 k
//	a4 dimensions d            a5 assignment out (one i64 per point)
//	a6 sums base (k×(d+1) f64: d coordinate sums then a count)
const kmeansSrc = `
	li   t0, 0               # i (point index)
	slli s10, a4, 3          # point stride in bytes
	addi s11, a4, 1
	slli s11, s11, 3         # sums stride in bytes (d+1 f64)
ploop:
	bge  t0, a1, done
	mul  t1, t0, s10
	add  t1, t1, a0          # point ptr
	li   t2, 0               # c (centroid index)
	li   s6, -1              # best centroid
	li   s5, 0x7FF0000000000000   # best distance = +inf
cloop:
	bge  t2, a3, assign
	mul  t3, t2, s10
	add  t3, t3, a2          # centroid ptr
	li   t4, 0               # j
	li   s4, 0               # dist = 0.0
dloop:
	bge  t4, a4, dcheck
	slli t5, t4, 3
	add  t6, t1, t5
	ld   s2, 0(t6)           # p[j]
	add  t6, t3, t5
	ld   s3, 0(t6)           # c[j]
	fsub s2, s2, s3
	fmul s2, s2, s2
	fadd s4, s4, s2
	addi t4, t4, 1
	j    dloop
dcheck:
	flt  s3, s4, s5          # dist < best?
	beqz s3, cnext
	mv   s5, s4
	mv   s6, t2
cnext:
	addi t2, t2, 1
	j    cloop
assign:
	slli t3, t0, 3
	add  t3, t3, a5
	sd   s6, 0(t3)           # assignment[i] = best
	mul  t3, s6, s11
	add  t3, t3, a6          # sums row for best cluster
	li   t4, 0
aloop:
	bge  t4, a4, acount
	slli t5, t4, 3
	add  t6, t1, t5
	ld   s2, 0(t6)           # p[j]
	add  t6, t3, t5
	ld   s3, 0(t6)           # sums[best][j]
	fadd s3, s3, s2
	sd   s3, 0(t6)
	addi t4, t4, 1
	j    aloop
acount:
	slli t5, a4, 3
	add  t6, t3, t5
	ld   s3, 0(t6)
	li   s2, 1
	fcvt.d.l s2, s2
	fadd s3, s3, s2
	sd   s3, 0(t6)           # sums[best][d] += 1.0
	addi t0, t0, 1
	j    ploop
done:
	halt
`

// KMeansProg is the assembled K-means assignment kernel.
var KMeansProg = isa.MustAssemble("kmeans", kmeansSrc)

// NewKMeans builds a K-means workload: each task runs the assignment step on
// its own block of points against shared centroids, accumulating into its
// own partial-sum buffer (the map side of MapReduce K-means).
func NewKMeans(cfg Config) *Workload {
	points := cfg.Scale
	if points <= 0 {
		points = 48
	}
	const k, d = 4, 4
	rng := sim.NewRNG(cfg.Seed ^ 0xA005)
	m := cfg.store()
	a := cfg.arena()
	w := &Workload{Name: "kmeans", Mem: m}

	centBase := a.alloc(k * d * 8)
	cents := make([][]float64, k)
	for c := range cents {
		cents[c] = make([]float64, d)
		for j := range cents[c] {
			cents[c][j] = rng.Float64() * 10
			m.WriteUint64(centBase+uint64(c*d+j)*8, math.Float64bits(cents[c][j]))
		}
	}

	type block struct {
		pts            []float64 // points×d, row-major: one allocation per task
		assignA, sumsA uint64
	}
	blocks := make([]block, cfg.Tasks)
	for t := 0; t < cfg.Tasks; t++ {
		ptsBase := a.alloc(points * d * 8)
		assignBase := a.alloc(points * 8)
		sumsBase := a.alloc(k * (d + 1) * 8)
		pts := make([]float64, points*d)
		for i := range pts {
			pts[i] = rng.Float64() * 10
			m.WriteUint64(ptsBase+uint64(i)*8, math.Float64bits(pts[i]))
		}
		blocks[t] = block{pts: pts, assignA: assignBase, sumsA: sumsBase}
		task := Task{
			ID:   t,
			Prog: KMeansProg,
			Args: [8]int64{
				int64(ptsBase), int64(points), int64(centBase),
				k, d, int64(assignBase), int64(sumsBase),
			},
		}
		if cfg.StageSPM {
			// Centroids are shared read-only: every task stages a copy.
			task.Stage = []StageRegion{
				{Arg: 0, Bytes: points * d * 8},
				{Arg: 2, Bytes: k * d * 8},
				{Arg: 5, Bytes: points * 8, Out: true},
				{Arg: 6, Bytes: k * (d + 1) * 8, Out: true},
			}
		}
		w.Tasks = append(w.Tasks, task)
	}

	w.Check = func() error {
		for t, b := range blocks {
			wantAssign, wantSums := refKMeans(b.pts, cents)
			for i, wa := range wantAssign {
				if got := int64(m.ReadUint64(b.assignA + uint64(i)*8)); got != wa {
					return fmt.Errorf("kmeans task %d point %d: cluster %d, want %d", t, i, got, wa)
				}
			}
			for c := 0; c < k; c++ {
				for j := 0; j <= d; j++ {
					got := math.Float64frombits(m.ReadUint64(b.sumsA + uint64(c*(d+1)+j)*8))
					if got != wantSums[c][j] {
						return fmt.Errorf("kmeans task %d sums[%d][%d] = %v, want %v", t, c, j, got, wantSums[c][j])
					}
				}
			}
		}
		return nil
	}
	return w
}

// refKMeans mirrors the kernel: same iteration order, same float64 ops, so
// results are bit-identical. pts holds the points row by row, d values each.
func refKMeans(pts []float64, cents [][]float64) (assign []int64, sums [][]float64) {
	k, d := len(cents), len(cents[0])
	assign = make([]int64, len(pts)/d)
	sums = make([][]float64, k)
	for c := range sums {
		sums[c] = make([]float64, d+1)
	}
	for i := range assign {
		p := pts[i*d : (i+1)*d]
		best := int64(-1)
		bestDist := math.Inf(1)
		for c := 0; c < k; c++ {
			dist := 0.0
			for j := 0; j < d; j++ {
				diff := p[j] - cents[c][j]
				dist += diff * diff
			}
			if dist < bestDist {
				bestDist = dist
				best = int64(c)
			}
		}
		assign[i] = best
		for j := 0; j < d; j++ {
			sums[best][j] += p[j]
		}
		sums[best][d] += 1.0
	}
	return assign, sums
}
