package chip

import (
	"strings"
	"testing"

	"smarco/internal/isa"
	"smarco/internal/kernels"
	"smarco/internal/mem"
	"smarco/internal/spm"
)

// runWorkload builds a small chip around a workload and runs it to
// completion, returning the chip for metric inspection.
func runWorkload(t *testing.T, cfg Config, w *kernels.Workload, budget uint64) *Chip {
	t.Helper()
	c := New(cfg, w.Mem)
	c.Submit(w.Tasks)
	if _, err := c.Run(budget); err != nil {
		t.Fatalf("%s: %v (completed %d/%d)", w.Name, err, c.CompletedTasks(), len(w.Tasks))
	}
	if err := w.Check(); err != nil {
		t.Fatalf("%s: output check failed: %v", w.Name, err)
	}
	return c
}

// TestAllBenchmarksRunOnChip is the end-to-end integration test: every
// paper benchmark executes on the cycle-level chip and produces output
// identical to the Go reference.
func TestAllBenchmarksRunOnChip(t *testing.T) {
	for _, name := range kernels.Names {
		w := kernels.MustNew(name, kernels.Config{Seed: 11, Tasks: 8, Scale: scaleFor(name)})
		c := runWorkload(t, SmallConfig(), w, 3_000_000)
		m := c.Metrics()
		if m.Instructions == 0 || m.TasksDone != 8 {
			t.Fatalf("%s: metrics %+v", name, m)
		}
	}
}

// scaleFor keeps chip-level tests fast.
func scaleFor(name string) int {
	switch name {
	case "wordcount", "kmp":
		return 512
	case "terasort", "search":
		return 24
	case "kmeans":
		return 16
	default:
		return 0
	}
}

func TestSerialParallelEquivalence(t *testing.T) {
	run := func(parts int) (uint64, error, *kernels.Workload) {
		w := kernels.MustNew("rnc", kernels.Config{Seed: 3, Tasks: 12})
		cfg := SmallConfig()
		cfg.Partitions = parts
		c := New(cfg, w.Mem)
		c.Submit(w.Tasks)
		cycles, err := c.Run(3_000_000)
		return cycles, err, w
	}
	cs, err, ws := run(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.Check(); err != nil {
		t.Fatal(err)
	}
	cp, err, wp := run(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := wp.Check(); err != nil {
		t.Fatal(err)
	}
	if cs != cp {
		t.Fatalf("one-partition (%d cycles) and two-partition (%d cycles) runs diverged", cs, cp)
	}
}

func TestMACTReducesMemoryRequests(t *testing.T) {
	run := func(enabled bool) Metrics {
		w := kernels.MustNew("kmp", kernels.Config{Seed: 5, Tasks: 8, Scale: 384})
		cfg := SmallConfig()
		cfg.MACT.Enabled = enabled
		c := runWorkload(t, cfg, w, 5_000_000)
		return c.Metrics()
	}
	on := run(true)
	off := run(false)
	if on.MACTCollected == 0 || on.MACTBatches == 0 {
		t.Fatalf("MACT inactive when enabled: %+v", on)
	}
	if off.MACTCollected != 0 {
		t.Fatal("MACT collected while disabled")
	}
	if on.MemRequests >= off.MemRequests {
		t.Fatalf("MACT should reduce MC requests: on=%d off=%d", on.MemRequests, off.MemRequests)
	}
}

func TestSlicedNoCOutperformsConventionalOnChip(t *testing.T) {
	run := func(conventional bool) uint64 {
		w := kernels.MustNew("rnc", kernels.Config{Seed: 7, Tasks: 16})
		cfg := SmallConfig()
		cfg.MACT.Enabled = false // expose raw small packets to the NoC
		cfg.SubLink.Conventional = conventional
		cfg.MainLink.Conventional = conventional
		c := runWorkload(t, cfg, w, 8_000_000)
		return c.Now()
	}
	sliced := run(false)
	conv := run(true)
	if sliced > conv {
		t.Fatalf("sliced NoC slower than conventional: %d vs %d cycles", sliced, conv)
	}
}

func TestRealTimeTasksMeetDeadlinesUnderLoad(t *testing.T) {
	rnc := kernels.MustNew("rnc", kernels.Config{Seed: 9, Tasks: 8})
	for i := range rnc.Tasks {
		rnc.Tasks[i].Deadline = 120_000
		rnc.Tasks[i].EstCycles = 20_000
	}
	c := runWorkload(t, SmallConfig(), rnc, 3_000_000)
	missed := 0
	for _, r := range c.Results() {
		if r.Missed() {
			missed++
		}
	}
	if missed > 0 {
		t.Fatalf("%d real-time tasks missed their deadlines", missed)
	}
}

// TestSPMStagingVerifiesAndCutsDRAMTraffic runs every benchmark in the
// paper's SPM-resident mode: datasets are DMA-staged into scratchpads, the
// outputs still verify bit-for-bit, and small-granularity DRAM requests
// drop sharply versus streaming.
func TestSPMStagingVerifiesAndCutsDRAMTraffic(t *testing.T) {
	for _, name := range kernels.Names {
		run := func(stage bool) Metrics {
			w := kernels.MustNew(name, kernels.Config{
				Seed: 19, Tasks: 8, Scale: scaleFor(name), StageSPM: stage,
			})
			c := runWorkload(t, SmallConfig(), w, 5_000_000)
			return c.Metrics()
		}
		staged := run(true)
		streamed := run(false)
		if staged.SPMAccesses == 0 {
			t.Fatalf("%s: staging produced no SPM accesses", name)
		}
		// Every staged benchmark keeps some shared or residual DRAM
		// traffic, but far less than streaming.
		if staged.MemRequests >= streamed.MemRequests {
			t.Fatalf("%s: staging did not cut DRAM requests: %d vs %d",
				name, staged.MemRequests, streamed.MemRequests)
		}
	}
}

func TestStagingFallsBackWhenTooLarge(t *testing.T) {
	// A task whose staged regions exceed the per-slot SPM share must run
	// in streaming mode and still verify. Merging 4096-key runs needs
	// 3 x 32 KB of staging, far beyond the ~16 KB slot share.
	w := kernels.NewTeraMerge(kernels.Config{
		Seed: 23, Tasks: 2, Scale: 4096, StageSPM: true,
	})
	c := runWorkload(t, SmallConfig(), w, 40_000_000)
	var stagedTasks uint64
	for _, core := range c.Cores {
		stagedTasks += core.Stats.StagedTasks.Value()
	}
	if stagedTasks != 0 {
		t.Fatalf("oversized dataset was staged (%d tasks)", stagedTasks)
	}
}

// TestRemoteSPMAndRemoteDMAKick exercises cross-sub-ring SPM sharing: a
// task (on whatever core the scheduler picks) writes data into core 15's
// SPM, programs core 15's DMA control registers remotely to copy that data
// to DRAM, polls the remote busy flag, and finally verifies the DRAM copy.
func TestRemoteSPMAndRemoteDMAKick(t *testing.T) {
	prog := isa.MustAssemble("remotedma", `
		# a0 = core15 SPM data base, a1 = core15 ctrl base,
		# a2 = DRAM destination, a3 = value
		sd   a3, 0(a0)           # place data in the remote SPM
		sd   a0, 0(a1)           # DMA src
		sd   a2, 8(a1)           # DMA dst
		li   t0, 8
		sd   t0, 16(a1)          # DMA len
		li   t0, 1
		sd   t0, 24(a1)          # kick
	poll:
		ld   t1, 24(a1)
		bnez t1, poll            # wait until the remote engine goes idle
		halt
	`)
	m := mem.NewSparse()
	c := New(SmallConfig(), m)
	c.Submit([]kernels.Task{{
		ID:   1,
		Prog: prog,
		Args: [8]int64{
			int64(spm.AddrOf(15, 256)), int64(spm.CtrlBase(15)),
			0xB000, 424242,
		},
	}})
	if _, err := c.Run(3_000_000); err != nil {
		t.Fatal(err)
	}
	if got := m.ReadUint64(0xB000); got != 424242 {
		t.Fatalf("remote DMA copied %d, want 424242", got)
	}
	if got := c.Cores[15].SPM.Read(256, 8); got != 424242 {
		t.Fatalf("remote SPM content = %d", got)
	}
}

func TestChipConfigHelpers(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Cores() != 256 {
		t.Fatalf("cores = %d", cfg.Cores())
	}
	if cfg.Threads() != 2048 {
		t.Fatalf("threads = %d", cfg.Threads())
	}
	small := SmallConfig()
	if small.Cores() != 16 {
		t.Fatalf("small cores = %d", small.Cores())
	}
	c := New(small, nil)
	if c.Seconds(1_500_000_000) != 1.0 {
		t.Fatal("seconds conversion wrong at 1.5 GHz")
	}
}

func TestTasksSpreadAcrossSubRings(t *testing.T) {
	w := kernels.MustNew("search", kernels.Config{Seed: 13, Tasks: 16, Scale: 16})
	c := runWorkload(t, SmallConfig(), w, 3_000_000)
	perRing := map[int]int{}
	for _, r := range c.Results() {
		perRing[r.Core/c.Config.CoresPerSub]++
	}
	if len(perRing) < 3 {
		t.Fatalf("tasks concentrated on %d sub-rings: %v", len(perRing), perRing)
	}
}

func TestDirectPathServesPriorityReads(t *testing.T) {
	w := kernels.MustNew("rnc", kernels.Config{Seed: 15, Tasks: 8})
	cfg := SmallConfig()
	c := runWorkload(t, cfg, w, 3_000_000)
	// RNC tasks are priority: their reads bypass MACT and use the direct
	// links; at least some traffic must have flowed there.
	var direct uint64
	for _, h := range c.Hubs {
		if h.directSend != nil {
			direct++ // presence; volume checked via MACT bypass counter
		}
	}
	if direct == 0 {
		t.Fatal("no direct links built")
	}
	m := c.Metrics()
	if m.MACTBypassed == 0 && m.MACTCollected > 0 {
		t.Fatal("priority requests were not bypassed")
	}
}

func TestMetricsSanity(t *testing.T) {
	w := kernels.MustNew("terasort", kernels.Config{Seed: 21, Tasks: 8, Scale: 24})
	c := runWorkload(t, SmallConfig(), w, 3_000_000)
	m := c.Metrics()
	if m.Loads+m.Stores != m.MemOps {
		t.Fatalf("loads+stores != memops: %+v", m)
	}
	if m.IPC <= 0 || m.IPC > float64(c.Config.Cores()*c.Config.Core.Lanes) {
		t.Fatalf("implausible IPC %v", m.IPC)
	}
	if m.SubRingUtil < 0 || m.SubRingUtil > 1 || m.MainRingUtil < 0 || m.MainRingUtil > 1 {
		t.Fatalf("utilization out of range: %+v", m)
	}
	if m.LoadLatMean <= 0 {
		t.Fatal("no load latency recorded")
	}
	if m.MemRequests == 0 || m.MemBusBytes == 0 {
		t.Fatal("memory controllers idle")
	}
}

// TestMeshTopologyRunsAllBenchmarks: the §3.2 mesh baseline executes every
// benchmark correctly (same cores and memory, XY-routed interconnect).
func TestMeshTopologyRunsAllBenchmarks(t *testing.T) {
	for _, name := range kernels.Names {
		w := kernels.MustNew(name, kernels.Config{Seed: 29, Tasks: 8, Scale: scaleFor(name)})
		cfg := SmallConfig()
		cfg.Topology = "mesh"
		c := runWorkload(t, cfg, w, 5_000_000)
		if c.Mesh == nil {
			t.Fatal("mesh not built")
		}
		m := c.Metrics()
		if m.TasksDone != 8 || m.PacketsMoved == 0 {
			t.Fatalf("%s: metrics %+v", name, m)
		}
		if m.MACTCollected != 0 {
			t.Fatal("mesh baseline must not have a MACT")
		}
	}
}

// TestRingBeatsMeshOnSmallPackets is the §3.2 design claim made
// measurable: with equal aggregate link bandwidth, the hierarchical ring
// with sliced channels moves the small-granularity RNC workload faster
// than the XY mesh.
func TestRingBeatsMeshOnSmallPackets(t *testing.T) {
	run := func(topology string) uint64 {
		w := kernels.MustNew("rnc", kernels.Config{Seed: 31, Tasks: 32})
		cfg := SmallConfig()
		cfg.Topology = topology
		cfg.MACT.Enabled = false // isolate the interconnect comparison
		c := runWorkload(t, cfg, w, 8_000_000)
		return c.Now()
	}
	ring := run("")
	mesh := run("mesh")
	if ring > mesh+mesh/10 {
		t.Fatalf("ring (%d cycles) much slower than mesh (%d)", ring, mesh)
	}
	t.Logf("ring %d cycles, mesh %d cycles", ring, mesh)
}

func TestTimelineSampling(t *testing.T) {
	w := kernels.MustNew("kmp", kernels.Config{Seed: 37, Tasks: 16, Scale: 512})
	c := New(SmallConfig(), w.Mem)
	c.Submit(w.Tasks)
	samples, _, err := c.RunWithTimeline(5_000_000, 2_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Check(); err != nil {
		t.Fatal(err)
	}
	if len(samples) < 2 {
		t.Fatalf("samples = %d", len(samples))
	}
	var instr, tasks uint64
	for i, s := range samples {
		if s.End <= s.Start {
			t.Fatalf("sample %d has empty interval", i)
		}
		instr += s.Instructions
		tasks += s.TasksDone
	}
	m := c.Metrics()
	if instr != m.Instructions {
		t.Fatalf("timeline instructions %d != total %d", instr, m.Instructions)
	}
	if tasks != 16 {
		t.Fatalf("timeline tasks %d != 16", tasks)
	}
	var sb strings.Builder
	if err := WriteTimelineCSV(&sb, samples); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "start,end,instructions") {
		t.Fatal("CSV header missing")
	}
	if len(strings.Split(strings.TrimSpace(sb.String()), "\n")) != len(samples)+1 {
		t.Fatal("CSV row count mismatch")
	}
}

func TestFullChipConstructs(t *testing.T) {
	// The paper's full 256-core configuration must wire without panics:
	// 16 sub-rings x 16 cores, 4 MCs, 16 hubs with MACTs, direct links.
	c := New(DefaultConfig(), nil)
	if len(c.Cores) != 256 || len(c.Hubs) != 16 || len(c.MCs) != 4 || len(c.Subs) != 16 {
		t.Fatalf("structure: cores=%d hubs=%d mcs=%d subs=%d",
			len(c.Cores), len(c.Hubs), len(c.MCs), len(c.Subs))
	}
	if c.MainRing.Stops() != 16+4+1 {
		t.Fatalf("main ring stops = %d", c.MainRing.Stops())
	}
	for s, ring := range c.SubRings {
		if ring.Stops() != 17 {
			t.Fatalf("sub-ring %d stops = %d", s, ring.Stops())
		}
	}
	// A few idle cycles must be harmless and fast.
	for i := 0; i < 50; i++ {
		c.Step()
	}
	m := c.Metrics()
	if m.Instructions != 0 || m.TasksDone != 0 {
		t.Fatalf("idle chip did work: %+v", m)
	}
}

// TestGoldenTimingRegression pins the exact timing of one reference run.
// If a deliberate model change shifts it, update the constants; an
// unexpected failure here means some change silently altered the timing
// model or its determinism.
func TestGoldenTimingRegression(t *testing.T) {
	const (
		goldenCycles       = 12899
		goldenInstructions = 10168
	)
	w := kernels.MustNew("rnc", kernels.Config{Seed: 123, Tasks: 8})
	c := New(SmallConfig(), w.Mem)
	c.Submit(w.Tasks)
	cy, err := c.Run(3_000_000)
	if err != nil {
		t.Fatal(err)
	}
	m := c.Metrics()
	if cy != goldenCycles || m.Instructions != goldenInstructions {
		t.Fatalf("timing drifted: cycles=%d (golden %d), instructions=%d (golden %d) — "+
			"update the golden constants only if the model change was intentional",
			cy, goldenCycles, m.Instructions, goldenInstructions)
	}
}
