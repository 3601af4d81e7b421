// Command smarcosim runs one benchmark on a configured SmarCo chip and
// prints the run's metrics.
//
// Usage:
//
//	smarcosim -bench kmp -subrings 4 -cores 4 -tasks 32 -scale 512
//	smarcosim -bench rnc -full            # the paper's 256-core chip
//	smarcosim -bench terasort -mact=false # ablate the MACT
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strings"
	"sync/atomic"
	"syscall"

	"smarco/internal/card"
	"smarco/internal/chip"
	"smarco/internal/fault"
	"smarco/internal/kernels"
	"smarco/internal/power"
	"smarco/internal/sampling"
)

// exitCodeInterrupted distinguishes a graceful SIGINT/SIGTERM stop from
// success (0) and errors (1): scripts can tell "cleanly interrupted, state
// checkpointed" from "failed".
const exitCodeInterrupted = 3

func main() {
	log.SetFlags(0)
	log.SetPrefix("smarcosim: ")

	bench := flag.String("bench", "wordcount", "benchmark: "+strings.Join(kernels.Names, ", "))
	seed := flag.Uint64("seed", 1, "workload seed")
	tasks := flag.Int("tasks", 0, "task count (default: 2 per core)")
	scale := flag.Int("scale", 0, "per-task work (benchmark-specific; 0 = default)")
	subrings := flag.Int("subrings", 4, "sub-rings")
	cores := flag.Int("cores", 4, "cores per sub-ring")
	mcs := flag.Int("mcs", 2, "memory controllers")
	full := flag.Bool("full", false, "use the paper's full 256-core configuration")
	mact := flag.Bool("mact", true, "enable the memory access collection table")
	threshold := flag.Uint64("mact-threshold", 16, "MACT deadline in cycles")
	sliced := flag.Bool("sliced", true, "high-density sliced NoC channels (false = conventional)")
	sliceBytes := flag.Int("slice", 2, "channel slice width in bytes")
	direct := flag.Bool("direct", true, "enable the direct datapaths")
	stage := flag.Bool("stage", false, "stage task datasets into the SPMs (§3.6)")
	prefetch := flag.Bool("prefetch", false, "enable the sequential SPM prefetcher (§7)")
	mesh := flag.Bool("mesh", false, "use the 2D-mesh baseline interconnect instead of hierarchical rings")
	partitions := flag.Int("partitions", 0, "engine partitions: at most N (1 = no worker goroutines, 0 = one per CPU); results identical at any value")
	linkLatency := flag.Uint64("link-latency", 0, "cross-shard link latency in cycles (0 = classic 1-cycle links); latencies >1 license multi-cycle engine epochs")
	lookahead := flag.Uint64("lookahead", 0, "cap the engine's epoch length in cycles (0 = auto: the full window the link latencies allow); results identical at any setting")
	dramLatency := flag.Uint64("dram-latency", 0, "memory-class link latency in cycles: MC ring ejects and direct datapaths (0 = -link-latency)")
	mainringLatency := flag.Uint64("mainring-latency", 0, "main-ring injection latency in cycles (0 = -link-latency)")
	subringLatency := flag.Uint64("subring-latency", 0, "sub-ring-class latency in cycles: hub ejects and sub-scheduler inboxes (0 = -link-latency)")
	creditLatency := flag.Uint64("credit-latency", 0, "scheduler credit-return latency in cycles (0 = -link-latency)")
	budget := flag.Uint64("budget", 100_000_000, "cycle budget")
	sampleEvery := flag.Uint64("sample-every", 0, "sampled mode: one detailed window per N estimated cycles (0 = full detail)")
	sampleWindow := flag.Uint64("sample-window", 10_000, "sampled mode: detailed window length in cycles")
	sampleBatch := flag.Int("sample-batch", 0, "sampled mode: detailed batch floor in tasks (0 = chip default, 2*(threads+8*cores))")
	faultSeed := flag.Uint64("fault-seed", 1, "fault-injection seed (deterministic)")
	linkRate := flag.Float64("link-fault-rate", 0, "per-traversal NoC link fault probability")
	flipRate := flag.Float64("dram-flip-rate", 0, "per-word DRAM bit-flip probability per access")
	killCores := flag.Int("kill-cores", 0, "hard-fail this many cores mid-run")
	killCycle := flag.Uint64("kill-cycle", 0, "cycle at which cores (or chips) fail (0 = default)")
	processors := flag.Int("processors", 1, "processors on the PCIe card (2 selects card mode)")
	killChips := flag.Int("kill-chip", 0, "hard-fail this many whole processors mid-run (card mode)")
	pcieRate := flag.Float64("pcie-fault-rate", 0, "per-transfer PCIe fault probability (card mode)")
	pcieCycle := flag.Uint64("pcie-fault-cycle", 0, "cycle from which the PCIe link degrades (0 = from start)")
	taskRetries := flag.Int("task-retries", 0, "re-submissions per task after failure (0 = default, negative = none)")
	brownoutDepth := flag.Int("brownout-depth", 0, "shed normal-priority re-submissions above this survivor queue depth (0 = never)")
	submitTimeout := flag.Uint64("submit-timeout", 0, "re-dispatch a submission with no completion after N cycles (0 = off)")
	showPower := flag.Bool("power", false, "print the power/area estimate for this configuration")
	timeline := flag.String("timeline", "", "write a per-interval metrics CSV to this file")
	interval := flag.Uint64("interval", 2000, "timeline sampling interval in cycles")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file (open in chrome://tracing or Perfetto)")
	traceEvents := flag.Int("trace-events", 0, "max trace events per partition (0 = default)")
	profile := flag.Bool("profile", false, "print the engine's per-partition wall-time attribution")
	jsonOut := flag.String("json", "", "write the unified JSON metrics snapshot to this file")
	cpuprofile := flag.String("cpuprofile", "", "write a Go pprof CPU profile of the simulator to this file")
	ckptEvery := flag.Uint64("checkpoint-every", 0, "write a checkpoint every N cycles (0 = off)")
	ckptDir := flag.String("checkpoint-dir", ".", "directory for periodic checkpoints")
	restore := flag.String("restore", "", "resume from this checkpoint file (same config and workload flags required)")
	flag.Parse()

	cfg := chip.SmallConfig()
	if *full {
		cfg = chip.DefaultConfig()
	} else {
		cfg.SubRings = *subrings
		cfg.CoresPerSub = *cores
		cfg.MCs = *mcs
	}
	cfg.MACT.Enabled = *mact
	cfg.MACT.Threshold = *threshold
	cfg.SubLink.Conventional = !*sliced
	cfg.MainLink.Conventional = !*sliced
	cfg.SubLink.SliceBytes = *sliceBytes
	cfg.MainLink.SliceBytes = *sliceBytes
	cfg.DirectPath = *direct
	cfg.Core.Prefetch = *prefetch
	if *mesh {
		cfg.Topology = "mesh"
	}
	cfg.Partitions = *partitions
	cfg.LinkLatency = *linkLatency
	cfg.Lookahead = *lookahead
	cfg.DRAMLatency = *dramLatency
	cfg.MainRingLatency = *mainringLatency
	cfg.SubRingLatency = *subringLatency
	cfg.CreditLatency = *creditLatency
	if *sampleEvery > 0 {
		cfg.Sampling = sampling.Config{Every: *sampleEvery, Window: *sampleWindow, MinBatch: *sampleBatch}
	}
	cfg.Fault = fault.Config{
		Seed:           *faultSeed,
		LinkFaultRate:  *linkRate,
		DRAMFlipRate:   *flipRate,
		KillCores:      *killCores,
		KillCycle:      *killCycle,
		ChipKills:      *killChips,
		ChipKillCycle:  *killCycle,
		PCIeFaultRate:  *pcieRate,
		PCIeFaultCycle: *pcieCycle,
	}

	// Graceful shutdown: the first SIGINT/SIGTERM requests a stop at the
	// next cycle barrier (checkpointable state); a second one kills the
	// process the default way.
	var stop atomic.Bool
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		stop.Store(true)
		signal.Stop(sigc)
	}()
	ckptDirSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "checkpoint-dir" {
			ckptDirSet = true
		}
	})

	nTasks := *tasks
	if nTasks <= 0 {
		nTasks = 2 * cfg.Cores() * max(*processors, 1)
	}
	w, err := kernels.New(*bench, kernels.Config{Seed: *seed, Tasks: nTasks, Scale: *scale, StageSPM: *stage})
	if err != nil {
		log.Fatal(err)
	}

	if cfg.Sampling.Enabled() {
		if *processors > 1 || *killChips > 0 || *pcieRate > 0 {
			log.Fatal("card mode does not support -sample-every (sampled runs are single-chip)")
		}
		if *ckptEvery > 0 {
			log.Fatal("-checkpoint-every cannot be combined with -sample-every: periodic checkpoints " +
				"slice on engine cycles, which a sampled run mostly skips; slice with -budget instead " +
				"(a sampled run stopped on its budget checkpoints exactly and resumes with -restore)")
		}
	}

	if *processors > 1 || *killChips > 0 || *pcieRate > 0 {
		if *timeline != "" || *traceOut != "" || *profile {
			log.Fatal("card mode does not support -timeline, -trace, or -profile")
		}
		if *killChips > 0 && *processors < 2 {
			log.Fatal("-kill-chip needs -processors 2: the kill schedule always leaves a survivor")
		}
		fmt.Printf("card: %d processor(s), %d sub-rings x %d cores each, dispatcher slice %d cycles\n",
			*processors, cfg.SubRings, cfg.CoresPerSub, card.DefaultSliceCycles)
		fmt.Printf("workload: %s, %d tasks, seed %d\n\n", w.Name, len(w.Tasks), *seed)
		runCard(cfg, w, cardOptions{
			processors: *processors,
			dispatch: card.DispatchConfig{
				TaskRetries:   *taskRetries,
				SubmitTimeout: *submitTimeout,
				BrownoutDepth: *brownoutDepth,
			},
			budget:     *budget,
			restore:    *restore,
			ckptEvery:  *ckptEvery,
			ckptDir:    *ckptDir,
			ckptDirSet: ckptDirSet,
			jsonOut:    *jsonOut,
			label:      *bench,
			desc:       fmt.Sprintf("%s tasks=%d seed=%d scale=%d", w.Name, len(w.Tasks), *seed, *scale),
			stopped:    stop.Load,
		})
		return // runCard exits; keep the compiler honest
	}

	topo := "hierarchical ring"
	if *mesh {
		topo = "2D mesh"
	}
	fmt.Printf("chip: %d sub-rings x %d cores (%d threads), %d MCs, %s, MACT=%v(th=%d), sliced=%v(%dB), stage=%v\n",
		cfg.SubRings, cfg.CoresPerSub, cfg.Threads(), cfg.MCs, topo,
		cfg.MACT.Enabled, cfg.MACT.Threshold, !cfg.SubLink.Conventional, cfg.SubLink.SliceBytes, *stage)
	fmt.Printf("workload: %s, %d tasks, seed %d\n\n", w.Name, len(w.Tasks), *seed)

	c, err := chip.Build(cfg, w.Mem)
	if err != nil {
		log.Fatal(err)
	}
	if *traceOut != "" {
		c.EnableTrace(*traceEvents)
	}
	if *profile || *jsonOut != "" {
		c.EnableProfile()
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	c.Submit(w.Tasks)
	// Restore after Submit: submission rebuilds the code-segment table the
	// checkpoint's program references resolve against.
	if *restore != "" {
		if err := c.RestoreFile(*restore); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("restored %s: resuming at cycle %d (%d/%d tasks done)\n",
			*restore, c.Now(), c.CompletedTasks(), len(w.Tasks))
	}
	var cycles uint64
	if *ckptEvery > 0 && *timeline != "" {
		log.Fatal("-checkpoint-every cannot be combined with -timeline")
	}
	if *timeline != "" {
		samples, end, err := c.RunWithTimeline(*budget, *interval)
		if err != nil {
			log.Fatalf("%v (completed %d/%d tasks)", err, c.CompletedTasks(), len(w.Tasks))
		}
		cycles = end
		f, err := os.Create(*timeline)
		if err != nil {
			log.Fatal(err)
		}
		if err := chip.WriteTimelineCSV(f, samples); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("timeline: %d samples -> %s\n", len(samples), *timeline)
	} else if *ckptEvery > 0 {
		// Run in checkpoint-sized slices, snapshotting at each boundary.
		done := func() bool { return c.CompletedTasks() >= len(w.Tasks) }
		for !done() {
			if c.Now() >= *budget {
				log.Fatalf("cycle budget exhausted (completed %d/%d tasks)", c.CompletedTasks(), len(w.Tasks))
			}
			next := c.Now() + *ckptEvery
			if _, err := c.RunUntil(*ckptEvery+1, func() bool { return done() || stop.Load() || c.Now() >= next }); err != nil {
				log.Fatalf("%v (completed %d/%d tasks)", err, c.CompletedTasks(), len(w.Tasks))
			}
			if stop.Load() && !done() {
				chipInterruptExit(c, len(w.Tasks), *ckptDir, true)
			}
			if done() {
				break
			}
			path := filepath.Join(*ckptDir, fmt.Sprintf("ckpt-%010d.snap", c.Now()))
			if err := c.WriteCheckpoint(path); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("checkpoint at cycle %d -> %s\n", c.Now(), path)
		}
		cycles = c.Now()
	} else if cfg.Sampling.Enabled() {
		// Sampled runs alternate detailed windows with functional
		// fast-forward on their own schedule; the budget lives on the
		// estimated-cycle axis and a budget stop is resumable via -restore.
		cy, err := c.Run(*budget)
		if err != nil {
			log.Fatalf("%v (completed %d/%d tasks)", err, c.CompletedTasks(), len(w.Tasks))
		}
		cycles = cy
	} else {
		done := func() bool { return c.CompletedTasks() >= len(w.Tasks) }
		cy, err := c.RunUntil(*budget, func() bool { return done() || stop.Load() })
		if err != nil {
			log.Fatalf("%v (completed %d/%d tasks)", err, c.CompletedTasks(), len(w.Tasks))
		}
		if stop.Load() && !done() {
			chipInterruptExit(c, len(w.Tasks), *ckptDir, ckptDirSet)
		}
		cycles = cy
	}
	if err := w.Check(); err != nil {
		log.Fatalf("OUTPUT CHECK FAILED: %v", err)
	}
	fmt.Println("output check: PASSED (bit-identical to the Go reference)")
	la := c.Lookahead()
	if la > 1 {
		fmt.Printf("engine: lookahead %d, %d epochs over %d cycles (%.2f cycles/epoch)\n",
			la, c.Epochs(), cycles, float64(cycles)/float64(max(c.Epochs(), 1)))
	}
	if wr := c.WindowReport(); len(wr) > 0 {
		var maxWin uint64
		hist := map[uint64]int{}
		for _, sw := range wr {
			hist[sw.Window]++
			if sw.Window > maxWin {
				maxWin = sw.Window
			}
		}
		if maxWin > la {
			wins := make([]uint64, 0, len(hist))
			for w := range hist {
				wins = append(wins, w)
			}
			slices.Sort(wins)
			var sb strings.Builder
			for _, w := range wins {
				if sb.Len() > 0 {
					sb.WriteString(", ")
				}
				fmt.Fprintf(&sb, "%dx window %d", hist[w], w)
			}
			fmt.Printf("engine: per-shard windows: %s\n", sb.String())
		}
	}
	if r := c.Sampled(); r != nil {
		fmt.Printf("sampled: estimate %d cycles ±%.2f%%, %d windows (%d tasks over %d detailed cycles), %d tasks fast-forwarded (%d functional instructions)\n",
			r.EstCycles, 100*r.RelErr, len(r.Windows), len(w.Tasks)-r.FastTasks, r.DetailedCycles,
			r.FastTasks, r.FFInstructions)
	}

	if *cpuprofile != "" {
		pprof.StopCPUProfile()
		fmt.Printf("cpu profile -> %s\n", *cpuprofile)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := c.WriteTrace(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace -> %s\n", *traceOut)
	}
	if *profile {
		fmt.Println()
		fmt.Print(c.Profile().String())
	}
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			log.Fatal(err)
		}
		snap := c.Snapshot(*bench, fmt.Sprintf("%s tasks=%d seed=%d scale=%d", w.Name, len(w.Tasks), *seed, *scale))
		if err := snap.WriteJSON(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("metrics snapshot -> %s\n", *jsonOut)
	}

	m := c.Metrics()
	fmt.Printf(`
cycles            %d  (%.3f ms at %.1f GHz)
instructions      %d
chip IPC          %.3f   (mean per-core %.3f)
memory ops        %d  (loads %d, stores %d, SPM %d)
load latency      mean %.1f cycles, p95 %d
NoC               sub-ring util %.4f, main-ring util %.4f, %d packets moved
MACT              collected %d, batches %d, forwards %d, bypassed %d
memory            %d requests (%d batched), %d bus bytes, row-hit %.3f
`,
		cycles, c.Seconds(cycles)*1e3, cfg.ClockHz/1e9,
		m.Instructions, m.IPC, m.IPCPerCore,
		m.MemOps, m.Loads, m.Stores, m.SPMAccesses,
		m.LoadLatMean, m.LoadLatP95,
		m.SubRingUtil, m.MainRingUtil, m.PacketsMoved,
		m.MACTCollected, m.MACTBatches, m.MACTForwards, m.MACTBypassed,
		m.MemRequests, m.MemBatches, m.MemBusBytes, m.RowHitRate)

	if cfg.Fault.Enabled() {
		fmt.Printf(`
fault injection   seed %d
link faults       %d  (retransmits %d, lost %d)
DRAM ECC          corrected %d, uncorrectable %d
cores killed      %d  (tasks migrated %d, rollback writes %d)
`,
			cfg.Fault.Seed,
			m.LinkFaults, m.Retransmits, m.PacketsLost,
			m.ECCCorrected, m.ECCUncorrectable,
			m.CoresKilled, m.TasksMigrated, m.RollbackWrites)
	}

	if *showPower {
		b := power.ChipBreakdown(cfg, power.Node32)
		act := power.ActivityFromMetrics(m, cfg)
		fmt.Println()
		fmt.Print(b.Table("power/area estimate (32 nm)").String())
		fmt.Printf("run-average power: %.2f W\n", power.AvgPower(b, act))
	}
	os.Exit(0)
}

// chipInterruptExit is the single-chip graceful-shutdown path: the engine
// stopped at a cycle barrier, so the state is checkpointable. A final
// checkpoint is written when the user opted into checkpointing.
func chipInterruptExit(c *chip.Chip, total int, dir string, writeCkpt bool) {
	fmt.Printf("interrupted at cycle %d (completed %d/%d tasks)\n", c.Now(), c.CompletedTasks(), total)
	if writeCkpt {
		path := filepath.Join(dir, fmt.Sprintf("ckpt-interrupt-%010d.snap", c.Now()))
		if err := c.WriteCheckpoint(path); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("final checkpoint -> %s (resume with -restore)\n", path)
	}
	os.Exit(exitCodeInterrupted)
}
