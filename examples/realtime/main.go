// Real-time example: the RNC benchmark under deadlines, comparing the
// software Deadline Scheduler against SmarCo's hardware laxity-aware
// scheduler (§3.7, Fig. 21). Every task must answer its UE's signalling
// queue before a common deadline; the laxity scheduler produces a tighter
// exit-time band and a higher success rate.
package main

import (
	"fmt"
	"log"
	"sort"

	"smarco"
	"smarco/internal/chip"
	"smarco/internal/sched"
)

func run(policy sched.Config, label string, deadline uint64) {
	cfg := chip.DefaultConfig()
	cfg.SubRings = 1
	cfg.CoresPerSub = 8 // one sub-ring, 64 thread contexts
	cfg.MCs = 1
	cfg.Partitions = 1
	cfg.Sched = policy

	w := smarco.NewWorkload("rnc", smarco.WorkloadConfig{Seed: 5, Tasks: 64, Scale: 48, StageSPM: true})
	for i := range w.Tasks {
		w.Tasks[i].Deadline = deadline
		w.Tasks[i].EstCycles = deadline / 8
	}

	c, err := chip.Build(cfg, w.Mem)
	if err != nil {
		log.Fatal(err)
	}
	c.Submit(w.Tasks)
	if _, err := c.Run(50_000_000); err != nil {
		log.Fatal(err)
	}
	if err := w.Check(); err != nil {
		log.Fatal(err)
	}

	var exits []uint64
	met := 0
	for _, r := range c.Results() {
		exits = append(exits, r.Done)
		if r.Done <= deadline {
			met++
		}
	}
	sort.Slice(exits, func(i, j int) bool { return exits[i] < exits[j] })
	fmt.Printf("%-22s exit times %6d..%6d (spread %5d), %d/%d met the %d-cycle deadline\n",
		label, exits[0], exits[len(exits)-1], exits[len(exits)-1]-exits[0], met, len(exits), deadline)
}

func main() {
	log.SetFlags(0)
	fmt.Println("64 real-time RNC tasks on one sub-ring (cf. Fig. 21):")
	const deadline = 60_000
	run(sched.DefaultSW(), "software deadline:", deadline)
	run(sched.DefaultHW(), "hardware laxity-aware:", deadline)
}
