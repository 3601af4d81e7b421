package chip

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"smarco/internal/fault"
	"smarco/internal/kernels"
	"smarco/internal/snapshot"
)

// snapshotJSON is a snapshot's bytes, for identity comparisons: a
// Snapshot holds only results, so runs of one machine and workload must
// match byte for byte however the host ran them.
func snapshotJSON(t *testing.T, s Snapshot) []byte {
	t.Helper()
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestNegativePartitionsRejected: a negative partition count is a
// configuration error, not a request for one partition per CPU.
func TestNegativePartitionsRejected(t *testing.T) {
	for _, n := range []int{-1, -2} {
		cfg := SmallConfig()
		cfg.Partitions = n
		if _, err := Build(cfg, nil); err == nil || !strings.Contains(err.Error(), "partitions") {
			t.Fatalf("Build with Partitions %d: err %v, want a partitions error", n, err)
		}
	}
	for _, n := range []int{0, 1, 3} {
		cfg := SmallConfig()
		cfg.Partitions = n
		if _, err := Build(cfg, nil); err != nil {
			t.Fatalf("Build with Partitions %d: %v", n, err)
		}
	}
}

// TestExecutorBitIdentity is the partitioning-invariance contract: one
// partition, two and three partitions, and a checkpoint restored into a
// chip on three partitions all produce the same cycle count and the same
// snapshot — with and without fault injection, and on one
// heavy workload whose dispatches the engine hands to its workers.
func TestExecutorBitIdentity(t *testing.T) {
	variants := []struct {
		name   string
		mutate func(*Config)
	}{
		{"partitions=2", func(c *Config) { c.Partitions = 2 }},
		{"partitions=3", func(c *Config) { c.Partitions = 3 }},
	}
	// The kmp cells below are light: the small chip ticks too few
	// components per cycle for a dispatch to pay for a worker handoff, so
	// the engine runs them inline. This cell stages kmeans into the SPMs
	// on every hardware thread behind 4-cycle links, so each dispatch is a
	// four-cycle epoch of busy cores and most are handed to the workers:
	// partitions run concurrently here, under -race too. Two Ps start the
	// workers on a single-CPU host as well.
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
		ref, refCycles := run(func(c *Config) { c.Partitions = 1 })
		refSnap := snapshotJSON(t, ref.Snapshot("identity", "kmp"))
		for _, v := range variants {
			c, cycles := run(v.mutate)
			if cycles != refCycles {
				t.Fatalf("%s: %d cycles, one partition %d", v.name, cycles, refCycles)
			}
			if snap := snapshotJSON(t, c.Snapshot("identity", "kmp")); !bytes.Equal(snap, refSnap) {
				t.Fatalf("%s: snapshot diverged from the one-partition run:\n%s\nvs\n%s", v.name, snap, refSnap)
			}
			if rr := c.RunReport(); rr.Handed == 0 {
				t.Fatalf("%s: none of %d dispatches handed to the workers", v.name, rr.Dispatched)
			}
		}
	})
	for _, faulty := range []bool{false, true} {
		faulty := faulty
		t.Run(fmt.Sprintf("faults=%t", faulty), func(t *testing.T) {
			base := SmallConfig()
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

			// One-partition reference.
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
			refSnap := snapshotJSON(t, ref.Snapshot("identity", "kmp"))

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
					t.Fatalf("%s: %d cycles, one partition %d", v.name, cycles, refCycles)
				}
				if snap := snapshotJSON(t, c.Snapshot("identity", "kmp")); !bytes.Equal(snap, refSnap) {
					t.Fatalf("%s: snapshot diverged from the one-partition run:\n%s\nvs\n%s",
						v.name, snap, refSnap)
				}
			}

			// Checkpoint the one-partition run halfway and resume it in a
			// chip on three partitions: the shard-level snapshot format is
			// independent of the partition count, so the resumed run must
			// land on the same final state.
			mid := refCycles / 2
			wInt := mk()
			intr := New(base, wInt.Mem)
			intr.Submit(wInt.Tasks)
			runToCycle(t, intr, mid)
			blob := intr.Checkpoint().Encode()

			resCfg := base
			resCfg.Partitions = 3
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
				t.Fatalf("restored three-partition run: %d cycles, one partition %d", resCycles, refCycles)
			}
			if snap := snapshotJSON(t, res.Snapshot("identity", "kmp")); !bytes.Equal(snap, refSnap) {
				t.Fatalf("restored three-partition run: snapshot diverged from the one-partition run")
			}
		})
	}
}
