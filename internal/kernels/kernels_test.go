package kernels

import (
	"testing"

	"smarco/internal/isa"
	"smarco/internal/mem"
)

// TestAllKernelsMatchReference is the central integration test of the
// toolchain: every benchmark runs functionally against randomized inputs and
// its memory output must match the Go reference bit-for-bit.
func TestAllKernelsMatchReference(t *testing.T) {
	for _, name := range Names {
		for seed := uint64(1); seed <= 3; seed++ {
			w := MustNew(name, Config{Seed: seed, Tasks: 4})
			if _, err := RunFunctional(w, 100_000_000); err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if err := w.Check(); err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
		}
	}
}

func TestTeraMergeMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		w := NewTeraMerge(Config{Seed: seed, Tasks: 3})
		if _, err := RunFunctional(w, 100_000_000); err != nil {
			t.Fatal(err)
		}
		if err := w.Check(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestUnknownBenchmark(t *testing.T) {
	if _, err := New("nope", Config{}); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
}

func TestWorkloadScaleKnob(t *testing.T) {
	small := MustNew("terasort", Config{Seed: 1, Tasks: 1, Scale: 8})
	big := MustNew("terasort", Config{Seed: 1, Tasks: 1, Scale: 128})
	is, err := RunFunctional(small, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	ib, err := RunFunctional(big, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if ib <= is {
		t.Fatalf("bigger scale should execute more instructions: %d vs %d", ib, is)
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a := MustNew("rnc", Config{Seed: 9, Tasks: 8})
	b := MustNew("rnc", Config{Seed: 9, Tasks: 8})
	if len(a.Tasks) != len(b.Tasks) {
		t.Fatal("task counts differ")
	}
	for i := range a.Tasks {
		if a.Tasks[i].Args != b.Tasks[i].Args {
			t.Fatalf("task %d args differ", i)
		}
	}
}

func TestRNCTasksAreRealTime(t *testing.T) {
	w := MustNew("rnc", Config{Seed: 1, Tasks: 2})
	for _, task := range w.Tasks {
		if task.Priority != PriorityRealTime {
			t.Fatal("rnc tasks must be real-time priority")
		}
	}
	w2 := MustNew("wordcount", Config{Seed: 1, Tasks: 2})
	for _, task := range w2.Tasks {
		if task.Priority != PriorityNormal {
			t.Fatal("wordcount tasks must be normal priority")
		}
	}
}

// TestGranularityProfile verifies the Fig. 8 shape: KMP and RNC are
// dominated by small (1-2 byte) accesses, K-means and TeraSort by 8-byte
// accesses.
func TestGranularityProfile(t *testing.T) {
	profile := func(name string) map[int]uint64 {
		w := MustNew(name, Config{Seed: 5, Tasks: 2})
		p, err := GranularityProfile(w)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return p
	}
	frac := func(p map[int]uint64, sizes ...int) float64 {
		var total, hit uint64
		for _, c := range p {
			total += c
		}
		for _, s := range sizes {
			hit += p[s]
		}
		if total == 0 {
			return 0
		}
		return float64(hit) / float64(total)
	}
	if f := frac(profile("kmp"), 1, 2); f < 0.5 {
		t.Fatalf("kmp small-access fraction = %v, want > 0.5", f)
	}
	if f := frac(profile("rnc"), 1, 2); f < 0.5 {
		t.Fatalf("rnc small-access fraction = %v, want > 0.5", f)
	}
	if f := frac(profile("terasort"), 8); f < 0.9 {
		t.Fatalf("terasort 8-byte fraction = %v, want > 0.9", f)
	}
	if f := frac(profile("kmeans"), 8); f < 0.9 {
		t.Fatalf("kmeans 8-byte fraction = %v, want > 0.9", f)
	}
}

// TestKernelsUseArgRegistersOnly ensures no kernel depends on registers
// beyond the a0..a7 arguments being preinitialized: running with garbage in
// every other register must still verify.
func TestKernelsUseArgRegistersOnly(t *testing.T) {
	for _, name := range Names {
		w := MustNew(name, Config{Seed: 2, Tasks: 2})
		for _, task := range w.Tasks {
			m := isa.NewMachine(w.Mem)
			for r := uint8(1); r < isa.NumRegs; r++ {
				m.Regs.Set(r, int64(0xDEAD0000)+int64(r))
			}
			for i, v := range task.Args {
				m.Regs.Set(uint8(10+i), v)
			}
			if err := m.Run(task.Prog, 100_000_000); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if err := w.Check(); err != nil {
			t.Fatalf("%s with dirty registers: %v", name, err)
		}
	}
}

func TestRefKMPAgainstNaive(t *testing.T) {
	texts := []string{"", "a", "abab", "ababab", "aaaa", "abcabcab", "abababab"}
	pats := []string{"a", "ab", "abab", "aa"}
	for _, txt := range texts {
		for _, pat := range pats {
			got := refKMP([]byte(txt), []byte(pat))
			var want uint64
			for i := 0; i+len(pat) <= len(txt); i++ {
				if txt[i:i+len(pat)] == pat {
					want++
				}
			}
			if got != want {
				t.Fatalf("refKMP(%q,%q) = %d, want %d", txt, pat, got, want)
			}
		}
	}
}

func TestArenaAlignment(t *testing.T) {
	a := newArena()
	r1 := a.alloc(1)
	r2 := a.alloc(100)
	r3 := a.alloc(64)
	if r1%64 != 0 || r2%64 != 0 || r3%64 != 0 {
		t.Fatal("arena regions must be 64-byte aligned")
	}
	if r2-r1 < 1 || r3-r2 < 100 {
		t.Fatal("arena regions overlap")
	}
}

// TestSharedStoreWithDisjointBases builds every benchmark into one backing
// store at spaced arena bases — the mixed-traffic image the chaos harness
// submits to a card — and verifies each workload still checks out.
func TestSharedStoreWithDisjointBases(t *testing.T) {
	store := mem.NewSparse()
	const window = 0x0100_0000
	var ws []*Workload
	for i, name := range Names {
		w := MustNew(name, Config{
			Seed: 21, Tasks: 2,
			Mem:  store,
			Base: 0x0001_0000 + uint64(i)*window,
		})
		if w.Mem != store {
			t.Fatalf("%s: workload did not use the shared store", name)
		}
		ws = append(ws, w)
	}
	for _, w := range ws {
		if _, err := RunFunctional(w, 100_000_000); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
	}
	for _, w := range ws {
		if err := w.Check(); err != nil {
			t.Fatalf("%s on shared store: %v", w.Name, err)
		}
	}
}

func TestTaskArgsLoadIntoARegisters(t *testing.T) {
	// The convention is a0..a7 = Args[0..7]; spot-check via a trivial
	// program that copies a3 to memory at a0.
	prog := isa.MustAssemble("argcheck", "sd a3, 0(a0)\nhalt")
	store := mem.NewSparse()
	m := isa.NewMachine(store)
	task := Task{Prog: prog, Args: [8]int64{0x100, 0, 0, 777}}
	for i, v := range task.Args {
		m.Regs.Set(uint8(10+i), v)
	}
	if err := m.Run(prog, 100); err != nil {
		t.Fatal(err)
	}
	if got := store.ReadUint64(0x100); got != 777 {
		t.Fatalf("stored %d, want 777", got)
	}
}

func TestStageRegionsSetWhenRequested(t *testing.T) {
	for _, name := range Names {
		plain := MustNew(name, Config{Seed: 1, Tasks: 2})
		staged := MustNew(name, Config{Seed: 1, Tasks: 2, StageSPM: true})
		for _, task := range plain.Tasks {
			if len(task.Stage) != 0 {
				t.Fatalf("%s: stage regions without StageSPM", name)
			}
		}
		for _, task := range staged.Tasks {
			if len(task.Stage) == 0 {
				t.Fatalf("%s: no stage regions with StageSPM", name)
			}
			hasOut := false
			for _, r := range task.Stage {
				if r.Arg < 0 || r.Arg > 7 || r.Bytes <= 0 {
					t.Fatalf("%s: bad region %+v", name, r)
				}
				if r.Out {
					hasOut = true
				}
				// The staged argument must hold a DRAM address.
				if task.Args[r.Arg] <= 0 {
					t.Fatalf("%s: region arg %d is not an address", name, r.Arg)
				}
			}
			if !hasOut {
				t.Fatalf("%s: no output region marked for writeback", name)
			}
		}
	}
}

func TestStagedWorkloadStillVerifiesFunctionally(t *testing.T) {
	// The functional runner ignores staging (args keep DRAM addresses), so
	// a staged workload must still check out when run functionally.
	for _, name := range Names {
		w := MustNew(name, Config{Seed: 6, Tasks: 3, StageSPM: true})
		if _, err := RunFunctional(w, 100_000_000); err != nil {
			t.Fatal(err)
		}
		if err := w.Check(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestKMeansInputAllocations bounds the allocations kmeans makes building
// the paper-scale inputs perfbench's paper-kmeans workload uses (seed 3,
// 2,048 tasks, scale 48, SPM-staged): each task's points live in one
// slice, so the count stays far below one allocation per point (98,304).
func TestKMeansInputAllocations(t *testing.T) {
	cfg := Config{Seed: 3, Tasks: 2048, Scale: 48, StageSPM: true}
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := New("kmeans", cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 10_000 {
		t.Fatalf("kmeans inputs made %.0f allocations, want at most 10,000", allocs)
	}
	t.Logf("%.0f allocations", allocs)
}
