package chip

import (
	"bytes"
	"path/filepath"
	"testing"

	"smarco/internal/fault"
	"smarco/internal/kernels"
	"smarco/internal/snapshot"
)

// mediumConfig is an 8x8 (64-core) chip: big enough to exercise multiple
// sub-rings, all four controllers, and the direct links, small enough for
// checkpoint tests to stay fast.
func mediumConfig() Config {
	cfg := DefaultConfig()
	cfg.SubRings = 8
	cfg.CoresPerSub = 8
	cfg.MCs = 4
	cfg.Partitions = 1
	return cfg
}

// runToCycle advances the chip to exactly the target cycle.
func runToCycle(t *testing.T, c *Chip, target uint64) {
	t.Helper()
	if _, err := c.RunUntil(target+100, func() bool { return c.Now() >= target }); err != nil {
		t.Fatalf("run to cycle %d: %v", target, err)
	}
	if c.Now() != target {
		t.Fatalf("stopped at cycle %d, want %d", c.Now(), target)
	}
}

// TestCheckpointRestoreBitIdentical is the core restore-determinism
// contract: a run checkpointed mid-flight and resumed in a freshly built
// chip finishes at the same cycle with identical metrics as the
// uninterrupted run — on one partition and on two, with and without
// fault injection.
func TestCheckpointRestoreBitIdentical(t *testing.T) {
	cases := []struct {
		name  string
		parts int
		fault bool
	}{
		{"serial", 1, false},
		{"parallel", 2, false},
		{"serial-faults", 1, true},
		{"parallel-faults", 2, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := mediumConfig()
			cfg.Partitions = tc.parts
			if tc.fault {
				cfg.Fault = fault.Config{
					Seed:          42,
					LinkFaultRate: 0.001,
					DRAMFlipRate:  1e-4,
					KillCores:     1,
					KillCycle:     2_000,
				}
			}
			mk := func() *kernels.Workload {
				return kernels.MustNew("rnc", kernels.Config{Seed: 123, Tasks: 16})
			}

			// Uninterrupted reference.
			wRef := mk()
			ref := New(cfg, wRef.Mem)
			ref.Submit(wRef.Tasks)
			refCycles, err := ref.Run(10_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if err := wRef.Check(); err != nil {
				t.Fatal(err)
			}

			// Interrupted run: checkpoint halfway.
			mid := refCycles / 2
			wInt := mk()
			intr := New(cfg, wInt.Mem)
			intr.Submit(wInt.Tasks)
			runToCycle(t, intr, mid)
			file := intr.Checkpoint()
			blob := file.Encode()

			// Resume in a fresh chip: Build + Submit + Restore.
			wRes := mk()
			res := New(cfg, wRes.Mem)
			res.Submit(wRes.Tasks)
			loaded, err := snapshot.Decode(blob)
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Restore(loaded); err != nil {
				t.Fatal(err)
			}
			if res.Now() != mid {
				t.Fatalf("restored to cycle %d, want %d", res.Now(), mid)
			}

			// Re-checkpointing immediately must reproduce the file
			// byte-for-byte: restore loses no state.
			if again := res.Checkpoint().Encode(); !bytes.Equal(blob, again) {
				fa, fb := snapshot.Fingerprints(file), snapshot.Fingerprints(res.Checkpoint())
				t.Fatalf("re-checkpoint after restore differs in sections %v",
					snapshot.DiffFingerprints(fa, fb))
			}

			resCycles, err := res.Run(10_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if err := wRes.Check(); err != nil {
				t.Fatal(err)
			}
			if resCycles != refCycles {
				t.Fatalf("restored run finished at cycle %d, reference at %d", resCycles, refCycles)
			}
			mRef, mRes := ref.Metrics(), res.Metrics()
			if mRef != mRes {
				t.Fatalf("metrics diverged:\nref: %+v\nres: %+v", mRef, mRes)
			}
		})
	}
}

// TestCheckpointDiskRoundTrip exercises the file path: write, read back,
// restore, finish, and verify the workload output.
func TestCheckpointDiskRoundTrip(t *testing.T) {
	cfg := SmallConfig()
	w := kernels.MustNew("wordcount", kernels.Config{Seed: 7, Tasks: 8, Scale: 512})
	c := New(cfg, w.Mem)
	c.Submit(w.Tasks)
	runToCycle(t, c, 5_000)
	path := filepath.Join(t.TempDir(), "chip.snap")
	if err := c.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}

	w2 := kernels.MustNew("wordcount", kernels.Config{Seed: 7, Tasks: 8, Scale: 512})
	c2 := New(cfg, w2.Mem)
	c2.Submit(w2.Tasks)
	if err := c2.RestoreFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	if err := w2.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreRejectsMismatchedChip: restoring into a differently shaped
// chip must fail loudly, not corrupt state silently.
func TestRestoreRejectsMismatchedChip(t *testing.T) {
	w := kernels.MustNew("rnc", kernels.Config{Seed: 1, Tasks: 4})
	c := New(SmallConfig(), w.Mem)
	c.Submit(w.Tasks)
	runToCycle(t, c, 100)
	file := c.Checkpoint()

	other := mediumConfig()
	w2 := kernels.MustNew("rnc", kernels.Config{Seed: 1, Tasks: 4})
	c2 := New(other, w2.Mem)
	c2.Submit(w2.Tasks)
	if err := c2.Restore(file); err == nil {
		t.Fatal("restore into a mismatched chip succeeded")
	}
}

// TestCheckpointMeshTopology covers the mesh baseline's component registry.
func TestCheckpointMeshTopology(t *testing.T) {
	cfg := SmallConfig()
	cfg.Topology = "mesh"
	mk := func() *kernels.Workload {
		return kernels.MustNew("search", kernels.Config{Seed: 5, Tasks: 8, Scale: 16})
	}
	wRef := mk()
	ref := New(cfg, wRef.Mem)
	ref.Submit(wRef.Tasks)
	refCycles, err := ref.Run(5_000_000)
	if err != nil {
		t.Fatal(err)
	}

	wInt := mk()
	intr := New(cfg, wInt.Mem)
	intr.Submit(wInt.Tasks)
	runToCycle(t, intr, refCycles/2)
	file := intr.Checkpoint()

	wRes := mk()
	res := New(cfg, wRes.Mem)
	res.Submit(wRes.Tasks)
	if err := res.Restore(file); err != nil {
		t.Fatal(err)
	}
	resCycles, err := res.Run(5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := wRes.Check(); err != nil {
		t.Fatal(err)
	}
	if resCycles != refCycles {
		t.Fatalf("mesh restore finished at %d, reference at %d", resCycles, refCycles)
	}
}

// TestBisectFindsPerturbation plants a one-byte DRAM perturbation at a
// known cycle in run B and checks that checkpoint bisection pinpoints
// exactly that cycle and blames the memory image.
func TestBisectFindsPerturbation(t *testing.T) {
	const perturbAt = 300
	cfg := SmallConfig()
	total, err := func() (uint64, error) {
		w := kernels.MustNew("rnc", kernels.Config{Seed: 123, Tasks: 8})
		c := New(cfg, w.Mem)
		c.Submit(w.Tasks)
		return c.Run(3_000_000)
	}()
	if err != nil {
		t.Fatal(err)
	}

	prober := func(perturb bool) snapshot.Prober {
		return func(cycle uint64) (map[string]uint64, error) {
			w := kernels.MustNew("rnc", kernels.Config{Seed: 123, Tasks: 8})
			c := New(cfg, w.Mem)
			c.Submit(w.Tasks)
			step := func(target uint64) error {
				_, err := c.RunUntil(target+100, func() bool { return c.Now() >= target })
				return err
			}
			if perturb && cycle >= perturbAt {
				if err := step(perturbAt); err != nil {
					return nil, err
				}
				w.Mem.Write(0x100, 1, 0xFF)
			}
			if err := step(cycle); err != nil {
				return nil, err
			}
			return c.Fingerprint(), nil
		}
	}

	div, err := snapshot.Bisect(0, total, prober(false), prober(true))
	if err != nil {
		t.Fatal(err)
	}
	if div.Cycle != perturbAt {
		t.Fatalf("bisect found divergence at cycle %d, want %d", div.Cycle, perturbAt)
	}
	found := false
	for _, id := range div.Components {
		if id == "mem" {
			found = true
		}
	}
	if !found {
		t.Fatalf("divergent components %v do not include mem", div.Components)
	}
}

// TestMetamorphicInvariants asserts cycle-count identity across observation
// and execution modes that must not perturb timing: tracing, profiling, a
// zero-rate fault layer, two partitions, and the checkpoint/restore path
// all yield the same cycle count as the plain one-partition run.
func TestMetamorphicInvariants(t *testing.T) {
	mk := func() *kernels.Workload {
		return kernels.MustNew("kmp", kernels.Config{Seed: 17, Tasks: 8, Scale: 384})
	}
	type variant struct {
		name string
		run  func(t *testing.T) uint64
	}
	base := func(mut func(*Config)) func(t *testing.T) uint64 {
		return func(t *testing.T) uint64 {
			cfg := SmallConfig()
			if mut != nil {
				mut(&cfg)
			}
			w := mk()
			c := New(cfg, w.Mem)
			c.Submit(w.Tasks)
			cycles, err := c.Run(5_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Check(); err != nil {
				t.Fatal(err)
			}
			return cycles
		}
	}
	variants := []variant{
		{"plain-serial", base(nil)},
		{"parallel", base(func(c *Config) { c.Partitions = 2 })},
		{"zero-rate-faults", base(func(c *Config) { c.Fault = fault.Config{Seed: 99} })},
		{"trace", func(t *testing.T) uint64 {
			cfg := SmallConfig()
			w := mk()
			c := New(cfg, w.Mem)
			c.EnableTrace(4096)
			c.Submit(w.Tasks)
			cycles, err := c.Run(5_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Check(); err != nil {
				t.Fatal(err)
			}
			return cycles
		}},
		{"profile", func(t *testing.T) uint64 {
			cfg := SmallConfig()
			w := mk()
			c := New(cfg, w.Mem)
			c.EnableProfile()
			c.Submit(w.Tasks)
			cycles, err := c.Run(5_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Check(); err != nil {
				t.Fatal(err)
			}
			return cycles
		}},
		{"checkpoint-restore", func(t *testing.T) uint64 {
			cfg := SmallConfig()
			w := mk()
			c := New(cfg, w.Mem)
			c.Submit(w.Tasks)
			runToCycle(t, c, 3_000)
			file := c.Checkpoint()
			w2 := mk()
			c2 := New(cfg, w2.Mem)
			c2.Submit(w2.Tasks)
			if err := c2.Restore(file); err != nil {
				t.Fatal(err)
			}
			cycles, err := c2.Run(5_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if err := w2.Check(); err != nil {
				t.Fatal(err)
			}
			return cycles
		}},
	}
	want := variants[0].run(t)
	for _, v := range variants[1:] {
		v := v
		t.Run(v.name, func(t *testing.T) {
			if got := v.run(t); got != want {
				t.Fatalf("%s finished at cycle %d, plain serial at %d", v.name, got, want)
			}
		})
	}
}

// TestCheckpointEveryCycleWindowed takes checkpoints at several points of
// one run and verifies each resumes to the identical final cycle — the
// checkpoint cadence must not matter.
func TestCheckpointCadenceIrrelevant(t *testing.T) {
	cfg := SmallConfig()
	mk := func() *kernels.Workload {
		return kernels.MustNew("rnc", kernels.Config{Seed: 123, Tasks: 8})
	}
	wRef := mk()
	ref := New(cfg, wRef.Mem)
	ref.Submit(wRef.Tasks)
	refCycles, err := ref.Run(3_000_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []uint64{10, 4, 2, 4 * refCycles / (3 * 4)} {
		mid := refCycles / frac
		if mid == 0 {
			continue
		}
		w := mk()
		c := New(cfg, w.Mem)
		c.Submit(w.Tasks)
		runToCycle(t, c, mid)
		file := c.Checkpoint()

		w2 := mk()
		c2 := New(cfg, w2.Mem)
		c2.Submit(w2.Tasks)
		if err := c2.Restore(file); err != nil {
			t.Fatalf("restore at cycle %d: %v", mid, err)
		}
		got, err := c2.Run(3_000_000)
		if err != nil {
			t.Fatalf("resume from cycle %d: %v", mid, err)
		}
		if got != refCycles {
			t.Fatalf("resume from cycle %d finished at %d, want %d", mid, got, refCycles)
		}
		if err := w2.Check(); err != nil {
			t.Fatalf("resume from cycle %d: %v", mid, err)
		}
	}
}
