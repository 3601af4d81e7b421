package chip

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"smarco/internal/fault"
	"smarco/internal/kernels"
	"smarco/internal/sim"
	"smarco/internal/snapshot"
)

// lookaheadSnapshot normalizes away execution-mode facts that legitimately
// vary across lookahead settings and partition counts — the partition
// count, the epoch count, the effective window, the partition assignment.
// Everything else (cycles, metrics, per-shard tick counts) must be
// bit-identical.
func lookaheadSnapshot(t *testing.T, c *Chip, kernel string) []byte {
	t.Helper()
	s := c.Snapshot("lookahead", kernel)
	s.Chip.Parallel = false
	s.Chip.Lookahead = 0
	s.Epochs = 0
	for i := range s.Load {
		s.Load[i].Partition = 0
	}
	// Windows are a pure function of the wiring and the Lookahead cap, but
	// the per-shard Blocks counts (and the cap's effect on the windows) are
	// wall-time facts like Epochs: normalize the whole report away.
	s.Windows = nil
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// lookaheadFaultConfig exercises every fault class under the epoch path.
func lookaheadFaultConfig() fault.Config {
	return fault.Config{
		Seed:          42,
		LinkFaultRate: 0.001,
		DRAMFlipRate:  1e-4,
		KillCores:     1,
		KillCycle:     2_000,
	}
}

// TestLookaheadConformance is the tentpole contract at chip level: on a
// LinkLatency-4 machine, every kernel produces the identical cycle count
// and normalized snapshot for lookahead 1, 2, 4, and auto, on one and two
// partitions, with and without fault injection. The reference is always
// lookahead 1 on one partition — classic cycle-by-cycle execution.
func TestLookaheadConformance(t *testing.T) {
	names := kernels.Names
	if testing.Short() {
		names = []string{"kmp", "wordcount"}
	}
	for _, kn := range names {
		kn := kn
		t.Run(kn, func(t *testing.T) {
			for _, faulty := range []bool{false, true} {
				faulty := faulty
				t.Run(fmt.Sprintf("faults=%t", faulty), func(t *testing.T) {
					mk := func() *kernels.Workload {
						return kernels.MustNew(kn, kernels.Config{Seed: 7, Tasks: 4})
					}
					base := SmallConfig()
					base.LinkLatency = 4
					base.Lookahead = 1
					if faulty {
						base.Fault = lookaheadFaultConfig()
					}
					wRef := mk()
					ref := New(base, wRef.Mem)
					ref.Submit(wRef.Tasks)
					refCycles, err := ref.Run(30_000_000)
					if err != nil {
						t.Fatal(err)
					}
					if err := wRef.Check(); err != nil {
						t.Fatal(err)
					}
					refSnap := lookaheadSnapshot(t, ref, kn)

					for _, look := range []uint64{1, 2, 4, 0} { // 0 = auto
						for _, parts := range []int{1, 2} {
							if look == 1 && parts == 1 {
								continue // that is the reference
							}
							cfg := base
							cfg.Lookahead = look
							cfg.Partitions = parts
							w := mk()
							c := New(cfg, w.Mem)
							c.Submit(w.Tasks)
							cycles, err := c.Run(30_000_000)
							name := fmt.Sprintf("look=%d parts=%d", look, parts)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							if err := w.Check(); err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							if cycles != refCycles {
								t.Fatalf("%s: %d cycles, reference %d", name, cycles, refCycles)
							}
							if want := look; want != 1 {
								if want == 0 || want > 4 {
									want = 4
								}
								if got := c.Lookahead(); got != want {
									t.Fatalf("%s: effective lookahead %d, want %d", name, got, want)
								}
								if c.Epochs() == 0 {
									t.Fatalf("%s: fused epoch path never ran", name)
								}
							}
							if snap := lookaheadSnapshot(t, c, kn); !bytes.Equal(snap, refSnap) {
								t.Fatalf("%s: snapshot diverged from reference:\n%s\nvs\n%s",
									name, snap, refSnap)
							}
						}
					}
				})
			}
		})
	}
}

// TestTimelineLookaheadIdentical: RunWithTimeline slices the run into
// budget-bounded intervals whose boundaries (interval 250) do not align
// with the 4-cycle epoch grid, so every interval enters and leaves
// mid-grid. The per-interval settled metrics — hence the whole CSV — must
// be byte-identical between lookahead 4 and lookahead 1.
func TestTimelineLookaheadIdentical(t *testing.T) {
	run := func(look uint64) string {
		w := kernels.MustNew("rnc", kernels.Config{Seed: 47, Tasks: 6})
		for i := range w.Tasks {
			w.Tasks[i].ReleaseCycle = uint64(i) * 3_000 // bursts with idle gaps
		}
		cfg := SmallConfig()
		cfg.LinkLatency = 4
		cfg.Lookahead = look
		c := New(cfg, w.Mem)
		c.Submit(w.Tasks)
		samples, _, err := c.RunWithTimeline(3_000_000, 250)
		if err != nil {
			t.Fatalf("look=%d: %v", look, err)
		}
		if err := w.Check(); err != nil {
			t.Fatalf("look=%d: %v", look, err)
		}
		var sb strings.Builder
		if err := WriteTimelineCSV(&sb, samples); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	ref := run(1)
	if got := run(4); got != ref {
		t.Fatalf("timelines diverged\nlookahead 4:\n%s\nlookahead 1:\n%s", got, ref)
	}
}

// TestLookaheadCheckpointCrossSetting: checkpoints taken at epoch barriers
// carry sealed in-flight deliveries with absolute release cycles, so a
// snapshot from a full-lookahead one-partition run restores into a
// lookahead-1 chip on three partitions (and vice versa) and converges on
// the identical final state.
func TestLookaheadCheckpointCrossSetting(t *testing.T) {
	mk := func() *kernels.Workload {
		return kernels.MustNew("kmp", kernels.Config{Seed: 123, Tasks: 8})
	}
	base := SmallConfig()
	base.LinkLatency = 4

	// Reference: uninterrupted one-partition run at full lookahead.
	wRef := mk()
	ref := New(base, wRef.Mem)
	ref.Submit(wRef.Tasks)
	refCycles, err := ref.Run(30_000_000)
	if err != nil {
		t.Fatal(err)
	}
	refSnap := lookaheadSnapshot(t, ref, "kmp")

	for _, tc := range []struct {
		name     string
		srcLook  uint64
		dstLook  uint64
		dstParts int
	}{
		{"full-to-one-parallel", 0, 1, 3},
		{"one-to-full-serial", 1, 0, 1},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			srcCfg := base
			srcCfg.Lookahead = tc.srcLook
			wSrc := mk()
			src := New(srcCfg, wSrc.Mem)
			src.Submit(wSrc.Tasks)
			// Stop mid-run on an exact budget; 1003 is deliberately not a
			// multiple of the 4-cycle grid.
			mid := refCycles/2 + 3
			if _, err := src.RunUntil(mid, func() bool { return false }); !errors.Is(err, sim.ErrBudget) {
				t.Fatalf("interrupt run: %v", err)
			}
			if src.Now() != mid {
				t.Fatalf("interrupted at cycle %d, want %d", src.Now(), mid)
			}
			blob := src.Checkpoint().Encode()

			dstCfg := base
			dstCfg.Lookahead = tc.dstLook
			dstCfg.Partitions = tc.dstParts
			wDst := mk()
			dst := New(dstCfg, wDst.Mem)
			dst.Submit(wDst.Tasks)
			loaded, err := snapshot.Decode(blob)
			if err != nil {
				t.Fatal(err)
			}
			if err := dst.Restore(loaded); err != nil {
				t.Fatal(err)
			}
			cycles, err := dst.Run(30_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if err := wDst.Check(); err != nil {
				t.Fatal(err)
			}
			if cycles != refCycles {
				t.Fatalf("restored run: %d cycles, reference %d", cycles, refCycles)
			}
			if snap := lookaheadSnapshot(t, dst, "kmp"); !bytes.Equal(snap, refSnap) {
				t.Fatal("restored run: snapshot diverged from uninterrupted reference")
			}
		})
	}
}

// heteroTestConfig is the small chip wired with the reference
// heterogeneous latency profile (DRAM-8 / NoC-2 / credit-1): the global
// minimum window is a single cycle, so only the shards fed by slower links
// run multi-cycle blocks on this machine.
func heteroTestConfig() Config {
	cfg := SmallConfig()
	cfg.DRAMLatency = 8
	cfg.MainRingLatency = 2
	cfg.SubRingLatency = 2
	cfg.CreditLatency = 1
	return cfg
}

// TestHeteroLatencyConformance is the per-shard-window contract at chip
// level: on the heterogeneous DRAM-8/NoC-2/credit-1 machine, every kernel
// produces the identical cycle count and normalized snapshot on one and
// two partitions, across SetLookahead clamps, with and without fault
// injection. The reference is the one-partition run at lookahead 1 —
// cycle-by-cycle execution of the same machine.
func TestHeteroLatencyConformance(t *testing.T) {
	names := kernels.Names
	if testing.Short() {
		names = []string{"kmp", "wordcount"}
	}
	for _, kn := range names {
		kn := kn
		t.Run(kn, func(t *testing.T) {
			for _, faulty := range []bool{false, true} {
				faulty := faulty
				t.Run(fmt.Sprintf("faults=%t", faulty), func(t *testing.T) {
					mk := func() *kernels.Workload {
						return kernels.MustNew(kn, kernels.Config{Seed: 7, Tasks: 4})
					}
					base := heteroTestConfig()
					base.Lookahead = 1
					if faulty {
						base.Fault = lookaheadFaultConfig()
					}
					wRef := mk()
					ref := New(base, wRef.Mem)
					ref.Submit(wRef.Tasks)
					refCycles, err := ref.Run(30_000_000)
					if err != nil {
						t.Fatal(err)
					}
					if err := wRef.Check(); err != nil {
						t.Fatal(err)
					}
					refSnap := lookaheadSnapshot(t, ref, kn)

					for _, tc := range []struct {
						look  uint64
						parts int
					}{
						{1, 1}, // cycle-by-cycle, rerun
						{4, 1}, // DRAM windows clamped 8 -> 4
						{4, 2},
						{0, 1}, // full windows
						{0, 2},
					} {
						cfg := base
						cfg.Lookahead = tc.look
						cfg.Partitions = tc.parts
						w := mk()
						c := New(cfg, w.Mem)
						c.Submit(w.Tasks)
						cycles, err := c.Run(30_000_000)
						name := fmt.Sprintf("look=%d parts=%d", tc.look, tc.parts)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if err := w.Check(); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if cycles != refCycles {
							t.Fatalf("%s: %d cycles, reference %d", name, cycles, refCycles)
						}
						if snap := lookaheadSnapshot(t, c, kn); !bytes.Equal(snap, refSnap) {
							t.Fatalf("%s: snapshot diverged from reference:\n%s\nvs\n%s",
								name, snap, refSnap)
						}
					}
				})
			}
		})
	}
}

// TestHeteroCheckpointCrossSetting: a checkpoint taken mid-run on the
// heterogeneous machine — at a cycle deliberately off the 8-cycle done
// grid — restores into a chip with a different partition count and
// lookahead cap, and converges on the identical final state. "global" names the
// global-min window, lookahead 1 on this machine (its credit links take
// one cycle), and "per-shard" full windows. Per-shard clocks are
// ephemeral (all shards realign at window ends and budget stops), so the
// checkpoint format carries no window state.
func TestHeteroCheckpointCrossSetting(t *testing.T) {
	mk := func() *kernels.Workload {
		return kernels.MustNew("kmp", kernels.Config{Seed: 123, Tasks: 8})
	}
	base := heteroTestConfig()

	// Reference: uninterrupted per-shard one-partition run at full windows.
	wRef := mk()
	ref := New(base, wRef.Mem)
	ref.Submit(wRef.Tasks)
	refCycles, err := ref.Run(30_000_000)
	if err != nil {
		t.Fatal(err)
	}
	refSnap := lookaheadSnapshot(t, ref, "kmp")

	for _, tc := range []struct {
		name     string
		srcLook  uint64
		dstLook  uint64
		dstParts int
	}{
		{"per-shard-to-global-parallel", 0, 1, 3},
		{"global-to-per-shard-serial", 1, 0, 1},
		{"per-shard-to-clamped-parallel", 0, 4, 2},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			srcCfg := base
			srcCfg.Lookahead = tc.srcLook
			wSrc := mk()
			src := New(srcCfg, wSrc.Mem)
			src.Submit(wSrc.Tasks)
			// Stop on an exact budget not aligned to the 8-cycle grid.
			mid := refCycles/2 + 3
			if _, err := src.RunUntil(mid, func() bool { return false }); !errors.Is(err, sim.ErrBudget) {
				t.Fatalf("interrupt run: %v", err)
			}
			if src.Now() != mid {
				t.Fatalf("interrupted at cycle %d, want %d", src.Now(), mid)
			}
			blob := src.Checkpoint().Encode()

			dstCfg := base
			dstCfg.Lookahead = tc.dstLook
			dstCfg.Partitions = tc.dstParts
			wDst := mk()
			dst := New(dstCfg, wDst.Mem)
			dst.Submit(wDst.Tasks)
			loaded, err := snapshot.Decode(blob)
			if err != nil {
				t.Fatal(err)
			}
			if err := dst.Restore(loaded); err != nil {
				t.Fatal(err)
			}
			cycles, err := dst.Run(30_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if err := wDst.Check(); err != nil {
				t.Fatal(err)
			}
			if cycles != refCycles {
				t.Fatalf("restored run: %d cycles, reference %d", cycles, refCycles)
			}
			if snap := lookaheadSnapshot(t, dst, "kmp"); !bytes.Equal(snap, refSnap) {
				t.Fatal("restored run: snapshot diverged from uninterrupted reference")
			}
		})
	}
}

// FuzzEpochBoundaries drives the epoch machinery through arbitrary budget
// slices on machines with arbitrary link latencies: chunked runs that stop
// mid-epoch and resume must land on the same final state as an
// uninterrupted lookahead-1 run of the same machine.
func FuzzEpochBoundaries(f *testing.F) {
	f.Add(uint64(4), uint64(0), uint64(137), uint64(911))
	f.Add(uint64(2), uint64(2), uint64(64), uint64(1))
	f.Add(uint64(7), uint64(3), uint64(1), uint64(4999))
	f.Add(uint64(1), uint64(0), uint64(333), uint64(333))
	f.Fuzz(func(t *testing.T, linkLat, look, s1, s2 uint64) {
		linkLat = 1 + linkLat%8
		look = look % 9 // 0 = auto, larger values clamp to linkLat
		s1 = 1 + s1%5_000
		s2 = 1 + s2%5_000

		mk := func() *kernels.Workload {
			return kernels.MustNew("kmp", kernels.Config{Seed: 11, Tasks: 3})
		}
		base := SmallConfig()
		base.LinkLatency = linkLat
		base.Lookahead = 1

		wRef := mk()
		ref := New(base, wRef.Mem)
		ref.Submit(wRef.Tasks)
		refCycles, err := ref.Run(30_000_000)
		if err != nil {
			t.Fatal(err)
		}
		refSnap := lookaheadSnapshot(t, ref, "kmp")

		cfg := base
		cfg.Lookahead = look
		w := mk()
		c := New(cfg, w.Mem)
		c.Submit(w.Tasks)
		// Two bounded slices whose ends land anywhere relative to the epoch
		// grid, then run to completion.
		for _, slice := range []uint64{s1, s2} {
			if c.CompletedTasks() >= 3 {
				break
			}
			start := c.Now()
			if _, err := c.RunUntil(slice, func() bool { return c.CompletedTasks() >= 3 }); err != nil {
				if !errors.Is(err, sim.ErrBudget) {
					t.Fatalf("slice run: %v", err)
				}
				if c.Now() != start+slice {
					t.Fatalf("budget stop at %d, want %d", c.Now(), start+slice)
				}
			}
		}
		cycles, err := c.Run(30_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Check(); err != nil {
			t.Fatal(err)
		}
		if cycles != refCycles {
			t.Fatalf("linkLat=%d look=%d slices=(%d,%d): %d cycles, reference %d",
				linkLat, look, s1, s2, cycles, refCycles)
		}
		if snap := lookaheadSnapshot(t, c, "kmp"); !bytes.Equal(snap, refSnap) {
			t.Fatalf("linkLat=%d look=%d slices=(%d,%d): snapshot diverged",
				linkLat, look, s1, s2)
		}
	})
}

// FuzzHeteroWindowBoundaries is FuzzEpochBoundaries for heterogeneous
// machines: arbitrary per-class latencies, an arbitrary SetLookahead
// clamp, and budget slices that stop shards mid-window must all converge
// on the state of an uninterrupted cycle-by-cycle run of the same machine.
func FuzzHeteroWindowBoundaries(f *testing.F) {
	f.Add(uint64(8), uint64(2), uint64(1), uint64(0), uint64(137), uint64(911))
	f.Add(uint64(5), uint64(3), uint64(2), uint64(4), uint64(64), uint64(1))
	f.Add(uint64(8), uint64(2), uint64(1), uint64(0), uint64(1), uint64(4999))
	f.Add(uint64(3), uint64(7), uint64(4), uint64(2), uint64(333), uint64(333))
	f.Fuzz(func(t *testing.T, dram, ring, credit, look, s1, s2 uint64) {
		dram = 1 + dram%8
		ring = 1 + ring%8
		credit = 1 + credit%8
		look = look % 9
		s1 = 1 + s1%5_000
		s2 = 1 + s2%5_000

		mk := func() *kernels.Workload {
			return kernels.MustNew("kmp", kernels.Config{Seed: 11, Tasks: 3})
		}
		base := SmallConfig()
		base.DRAMLatency = dram
		base.MainRingLatency = ring
		base.SubRingLatency = ring
		base.CreditLatency = credit

		refCfg := base
		refCfg.Lookahead = 1
		wRef := mk()
		ref := New(refCfg, wRef.Mem)
		ref.Submit(wRef.Tasks)
		refCycles, err := ref.Run(30_000_000)
		if err != nil {
			t.Fatal(err)
		}
		refSnap := lookaheadSnapshot(t, ref, "kmp")

		cfg := base
		cfg.Lookahead = look
		w := mk()
		c := New(cfg, w.Mem)
		c.Submit(w.Tasks)
		for _, slice := range []uint64{s1, s2} {
			if c.CompletedTasks() >= 3 {
				break
			}
			start := c.Now()
			if _, err := c.RunUntil(slice, func() bool { return c.CompletedTasks() >= 3 }); err != nil {
				if !errors.Is(err, sim.ErrBudget) {
					t.Fatalf("slice run: %v", err)
				}
				if c.Now() != start+slice {
					t.Fatalf("budget stop at %d, want %d", c.Now(), start+slice)
				}
			}
		}
		cycles, err := c.Run(30_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Check(); err != nil {
			t.Fatal(err)
		}
		if cycles != refCycles {
			t.Fatalf("dram=%d ring=%d credit=%d look=%d slices=(%d,%d): %d cycles, reference %d",
				dram, ring, credit, look, s1, s2, cycles, refCycles)
		}
		if snap := lookaheadSnapshot(t, c, "kmp"); !bytes.Equal(snap, refSnap) {
			t.Fatalf("dram=%d ring=%d credit=%d look=%d slices=(%d,%d): snapshot diverged",
				dram, ring, credit, look, s1, s2)
		}
	})
}
