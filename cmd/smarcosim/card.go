// Card mode: one or two processors behind the fault-tolerant PCIe
// dispatcher (DESIGN.md §11). Selected when -processors > 1 or any
// card-scoped fault (-kill-chip, -pcie-fault-rate) is configured.
package main

import (
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"smarco/internal/card"
	"smarco/internal/chaos"
	"smarco/internal/chip"
	"smarco/internal/kernels"
)

type cardOptions struct {
	processors int
	dispatch   card.DispatchConfig
	budget     uint64
	restore    string
	ckptEvery  uint64
	ckptDir    string
	ckptDirSet bool
	jsonOut    string
	label      string
	desc       string
	stopped    func() bool
}

func runCard(cfg chip.Config, w *kernels.Workload, opt cardOptions) {
	c, err := card.New(card.Config{
		Processors: opt.processors,
		Chip:       cfg,
		PCIe:       card.DefaultPCIe(),
		Dispatch:   opt.dispatch,
	}, w.Mem)
	if err != nil {
		log.Fatal(err)
	}
	c.Interrupt = opt.stopped
	if opt.ckptEvery > 0 {
		var last uint64
		c.SliceHook = func(now uint64) {
			if now-last < opt.ckptEvery {
				return
			}
			last = now
			path := filepath.Join(opt.ckptDir, fmt.Sprintf("ckpt-%010d.snap", now))
			if err := c.WriteCheckpoint(path); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("checkpoint at cycle %d -> %s\n", now, path)
		}
	}

	var cycles uint64
	if opt.restore != "" {
		if err := c.RestoreFile(opt.restore, w.Tasks); err != nil {
			log.Fatal(err)
		}
		r := c.Report()
		fmt.Printf("restored %s: resuming at cycle %d (%d/%d tasks resolved)\n",
			opt.restore, c.Now(), r.Completed+r.Abandoned+r.Shed, r.Submitted)
		cycles, err = c.Resume(opt.budget)
	} else {
		cycles, err = c.Run(w.Tasks, opt.budget)
	}
	if errors.Is(err, card.ErrInterrupted) {
		interruptExit(c, opt)
	}
	if err != nil {
		log.Fatalf("%v (%s)", err, progress(c.Report()))
	}

	r := c.Report()
	fmt.Printf("card: %s in %d cycles (%.3f ms)\n", progress(r), cycles, c.Seconds(cycles)*1e3)
	if r.Recovered > 0 || r.Resubmits > 0 || r.Timeouts > 0 {
		fmt.Printf("recovery: %d recovered, %d resubmits, %d timeouts, %d duplicate completions\n",
			r.Recovered, r.Resubmits, r.Timeouts, r.Duplicates)
	}
	for _, dc := range r.DeadChips {
		fmt.Printf("dead processor %d at cycle %d: %s\n", dc.Processor, dc.Cycle, dc.Cause)
	}
	if r.FirstKillCycle > 0 {
		fmt.Printf("throughput: %.4f tasks/kcycle before the first kill, %.4f after",
			r.PreKillPerK, r.PostKillPerK)
		if r.PreKillPerK > 0 {
			fmt.Printf(" (%.0f%%)", 100*r.PostKillPerK/r.PreKillPerK)
		}
		fmt.Println()
	}
	if r.LatencyMax > 0 {
		fmt.Printf("task latency: mean %.0f, p50 %d, p99 %d, p99.9 %d, max %d cycles\n",
			r.LatencyMean, r.LatencyP50, r.LatencyP99, r.LatencyP999, r.LatencyMax)
	}
	if s := c.FaultStats(); s != nil {
		fmt.Printf("card faults: %d chip kills, PCIe %d corrupt / %d dropped / %d retransmits / %d lost\n",
			s.ChipKills.Load(), s.PCIeCorrupt.Load(), s.PCIeDropped.Load(),
			s.PCIeRetransmits.Load(), s.PCIeLost.Load())
	}

	// A kill mid-task leaves partial writes with no card-level undo log, so
	// the bit-exact check only holds when nothing was lost and any
	// re-executed kernel tolerates re-execution.
	switch {
	case r.Completed < r.Submitted:
		fmt.Printf("output check: SKIPPED (%d tasks not completed)\n", r.Submitted-r.Completed)
	case r.Recovered > 0 && !chaos.ReexecSafe(w.Name):
		fmt.Printf("output check: SKIPPED (%s is not re-execution safe; %d tasks re-executed)\n",
			w.Name, r.Recovered)
	default:
		if err := w.Check(); err != nil {
			log.Fatalf("OUTPUT CHECK FAILED: %v", err)
		}
		fmt.Println("output check: PASSED (bit-identical to the Go reference)")
	}

	for i, ch := range c.Chips() {
		m := ch.Metrics()
		fmt.Printf("proc%d: %d instructions, IPC %.3f, %d cycles\n", i, m.Instructions, m.IPC, ch.Now())
	}
	if opt.jsonOut != "" {
		writeJSON(opt.jsonOut, c.Record(opt.label, opt.desc))
	}
	os.Exit(0)
}

func progress(r card.DispatchReport) string {
	return fmt.Sprintf("%d/%d tasks completed, %d abandoned, %d shed",
		r.Completed, r.Submitted, r.Abandoned, r.Shed)
}

// interruptExit is the graceful-shutdown path: the card sits at a cycle
// barrier, so when the user asked for checkpoints we can write a final,
// restorable one before exiting with the interrupt status code.
func interruptExit(c *card.Card, opt cardOptions) {
	fmt.Printf("interrupted at cycle %d (%s)\n", c.Now(), progress(c.Report()))
	if opt.ckptDirSet || opt.ckptEvery > 0 {
		path := filepath.Join(opt.ckptDir, fmt.Sprintf("ckpt-interrupt-%010d.snap", c.Now()))
		if err := c.WriteCheckpoint(path); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("final checkpoint -> %s (resume with -restore)\n", path)
	}
	os.Exit(exitCodeInterrupted)
}
