package chip

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"smarco/internal/fault"
	"smarco/internal/kernels"
	"smarco/internal/snapshot"
)

// normalizedSnapshot serializes a chip snapshot with the executor-dependent
// fields blanked: which executor ran and which partition each shard landed
// on are wall-time concerns, everything else (cycles, metrics, per-shard
// tick counts) must be bit-identical across executors.
func normalizedSnapshot(t *testing.T, c *Chip) []byte {
	t.Helper()
	s := c.Snapshot("identity", "kmp")
	s.Chip.Parallel = false
	s.Chip.Executor = ""
	for i := range s.Load {
		s.Load[i].Partition = 0
	}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestAutoExecutorCrossover: "auto" picks parallel only on a multi-CPU
// host with a chip at or above the measured crossover size; explicit modes
// always win. (The bit-identity matrix below need not rerun "auto": on the
// small chip it resolves to serial everywhere.)
func TestAutoExecutorCrossover(t *testing.T) {
	small := SmallConfig()
	small.Executor = "auto"
	if small.EffectiveParallel() {
		t.Fatalf("auto on a %d-core chip picked parallel (crossover is %d cores)",
			small.Cores(), autoParallelCores)
	}
	full := DefaultConfig()
	full.Executor = "auto"
	want := runtime.GOMAXPROCS(0) > 1
	if got := full.EffectiveParallel(); got != want {
		t.Fatalf("auto on the %d-core chip = %v, want %v (GOMAXPROCS=%d)",
			full.Cores(), got, want, runtime.GOMAXPROCS(0))
	}
	for _, tc := range []struct {
		mode string
		want bool
	}{{"serial", false}, {"parallel", true}} {
		cfg := SmallConfig()
		cfg.Executor = tc.mode
		if got := cfg.EffectiveParallel(); got != tc.want {
			t.Fatalf("executor %q resolved to parallel=%v, want %v", tc.mode, got, tc.want)
		}
	}
	bad := SmallConfig()
	bad.Executor = "warp"
	if _, err := Build(bad, nil); err == nil {
		t.Fatal("Build accepted unknown executor")
	}
}

// TestExecutorBitIdentity is the partitioning-invariance contract: the
// serial executor, the parallel executor at its default and at a forced
// partition count, periodic repartitioning, the "auto" mode, and a
// checkpoint restored into a differently-partitioned chip all produce the
// same cycle count and the same (normalized) snapshot — with and without
// fault injection, and on one heavy workload whose dispatches the
// parallel executor hands to its workers.
func TestExecutorBitIdentity(t *testing.T) {
	variants := []struct {
		name   string
		mutate func(*Config)
	}{
		{"parallel", func(c *Config) { c.Executor = "parallel" }},
		{"parallel-3parts", func(c *Config) { c.Executor = "parallel"; c.Partitions = 3 }},
		{"repartitioned", func(c *Config) {
			c.Executor = "parallel"
			c.Partitions = 3
			c.RepartitionEvery = 1_500
		}},
	}
	// The kmp cells below are light: the small chip ticks too few
	// components per cycle for a dispatch to pay for a worker handoff, so
	// the parallel executor runs them inline. This cell stages kmeans into
	// the SPMs on every hardware thread behind 4-cycle links, so each
	// dispatch is a four-cycle epoch of busy cores and most are handed to
	// the workers: partitions run concurrently here, under -race too. Two
	// Ps start the workers on a single-CPU host as well.
	t.Run("handoff", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
		run := func(mutate func(*Config)) (*Chip, uint64) {
			cfg := SmallConfig()
			cfg.LinkLatency = 4
			mutate(&cfg)
			w := kernels.MustNew("kmeans", kernels.Config{Seed: 123, Tasks: cfg.Threads(), Scale: 8, StageSPM: true})
			c := New(cfg, w.Mem)
			c.Submit(w.Tasks)
			cycles, err := c.Run(10_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Check(); err != nil {
				t.Fatal(err)
			}
			return c, cycles
		}
		ref, refCycles := run(func(c *Config) { c.Executor = "serial" })
		refSnap := normalizedSnapshot(t, ref)
		for _, v := range variants {
			c, cycles := run(v.mutate)
			if cycles != refCycles {
				t.Fatalf("%s: %d cycles, serial %d", v.name, cycles, refCycles)
			}
			if snap := normalizedSnapshot(t, c); !bytes.Equal(snap, refSnap) {
				t.Fatalf("%s: snapshot diverged from serial run:\n%s\nvs\n%s", v.name, snap, refSnap)
			}
			if h, d := c.Handoffs(); h == 0 {
				t.Fatalf("%s: none of %d dispatches handed to the workers", v.name, d)
			}
		}
	})
	for _, faulty := range []bool{false, true} {
		faulty := faulty
		t.Run(fmt.Sprintf("faults=%t", faulty), func(t *testing.T) {
			base := SmallConfig()
			base.Executor = "serial"
			if faulty {
				base.Fault = fault.Config{
					Seed:          42,
					LinkFaultRate: 0.001,
					DRAMFlipRate:  1e-4,
					KillCores:     1,
					KillCycle:     2_000,
				}
			}
			mk := func() *kernels.Workload {
				return kernels.MustNew("kmp", kernels.Config{Seed: 123, Tasks: 12})
			}

			// Serial reference.
			wRef := mk()
			ref := New(base, wRef.Mem)
			ref.Submit(wRef.Tasks)
			refCycles, err := ref.Run(10_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if err := wRef.Check(); err != nil {
				t.Fatal(err)
			}
			refSnap := normalizedSnapshot(t, ref)

			for _, v := range variants {
				cfg := base
				v.mutate(&cfg)
				w := mk()
				c := New(cfg, w.Mem)
				c.Submit(w.Tasks)
				cycles, err := c.Run(10_000_000)
				if err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
				if err := w.Check(); err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
				if cycles != refCycles {
					t.Fatalf("%s: %d cycles, serial %d", v.name, cycles, refCycles)
				}
				if snap := normalizedSnapshot(t, c); !bytes.Equal(snap, refSnap) {
					t.Fatalf("%s: snapshot diverged from serial run:\n%s\nvs\n%s",
						v.name, snap, refSnap)
				}
			}

			// Checkpoint the serial run halfway and resume it in a chip
			// using the repartitioned parallel executor: the shard-level
			// snapshot format is executor-independent, so the resumed run
			// must land on the same final state.
			mid := refCycles / 2
			wInt := mk()
			intr := New(base, wInt.Mem)
			intr.Submit(wInt.Tasks)
			runToCycle(t, intr, mid)
			blob := intr.Checkpoint().Encode()

			resCfg := base
			resCfg.Executor = "parallel"
			resCfg.Partitions = 3
			resCfg.RepartitionEvery = 1_000
			wRes := mk()
			res := New(resCfg, wRes.Mem)
			res.Submit(wRes.Tasks)
			loaded, err := snapshot.Decode(blob)
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Restore(loaded); err != nil {
				t.Fatal(err)
			}
			resCycles, err := res.Run(10_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if err := wRes.Check(); err != nil {
				t.Fatal(err)
			}
			if resCycles != refCycles {
				t.Fatalf("restored repartitioned run: %d cycles, serial %d", resCycles, refCycles)
			}
			if snap := normalizedSnapshot(t, res); !bytes.Equal(snap, refSnap) {
				t.Fatalf("restored repartitioned run: snapshot diverged from serial run")
			}
		})
	}
}
