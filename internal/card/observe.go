// Card-level observability: the dispatcher's accounting report, the
// degraded-throughput metrics, and the unified JSON snapshot mirroring
// chip.Snapshot's schema one level up.
package card

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc64"
	"io"

	"smarco/internal/chip"
)

// DeadChip describes one failed processor.
type DeadChip struct {
	Processor int    `json:"processor"`
	Cycle     uint64 `json:"cycle"`
	// Cause is "killed" for a scheduled chip kill, or the engine's
	// diagnostic (watchdog stall, component panic) otherwise.
	Cause string `json:"cause"`
}

// DispatchReport is the dispatcher's exactly-once accounting plus the
// degraded-mode throughput and tail-latency picture. The invariant every
// chaos schedule asserts: Completed + Abandoned + Shed == Submitted.
type DispatchReport struct {
	Submitted int `json:"submitted"`
	Completed int `json:"completed"`
	Abandoned int `json:"abandoned"`
	Shed      int `json:"shed"`
	// Recovered counts completions that needed at least one re-submission
	// (the task's first processor died or timed out under it).
	Recovered  int            `json:"recovered"`
	Resubmits  uint64         `json:"resubmits"`
	Timeouts   uint64         `json:"timeouts"`
	Duplicates uint64         `json:"duplicate_completions"`
	Reasons    map[string]int `json:"reasons,omitempty"` // abandon/shed reason -> count
	DeadChips  []DeadChip     `json:"dead_chips,omitempty"`

	// Degraded-throughput metrics, in completions per kilocycle, split at
	// the first processor death. Zero when no processor died.
	FirstKillCycle uint64  `json:"first_kill_cycle,omitempty"`
	PreKillPerK    float64 `json:"pre_kill_tasks_per_kcycle,omitempty"`
	PostKillPerK   float64 `json:"post_kill_tasks_per_kcycle,omitempty"`

	// Completion latency (task arrival to completion, card cycles).
	LatencyMean float64 `json:"latency_mean,omitempty"`
	LatencyP50  uint64  `json:"latency_p50,omitempty"`
	LatencyP99  uint64  `json:"latency_p99,omitempty"`
	LatencyP999 uint64  `json:"latency_p999,omitempty"`
	LatencyMax  uint64  `json:"latency_max,omitempty"`
}

// Report summarizes the dispatcher's accounting. Zero value before Start.
func (c *Card) Report() DispatchReport {
	d := c.disp
	if d == nil {
		return DispatchReport{}
	}
	r := DispatchReport{
		Submitted:  len(d.tasks),
		Resubmits:  d.resubmits,
		Timeouts:   d.timeouts,
		Duplicates: d.duplicates,
		Recovered:  int(d.recovered),
	}
	reasons := map[string]int{}
	for _, ts := range d.tasks {
		switch ts.status {
		case statusCompleted:
			r.Completed++
		case statusAbandoned:
			r.Abandoned++
			reasons[ts.reason]++
		case statusShed:
			r.Shed++
			reasons[ts.reason]++
		}
	}
	if len(reasons) > 0 {
		r.Reasons = reasons
	}
	firstKill := uint64(0)
	for i := range c.chips {
		if !d.dead[i] {
			continue
		}
		cause := "killed"
		if d.procErr[i] != nil {
			cause = d.procErr[i].Error()
		}
		r.DeadChips = append(r.DeadChips, DeadChip{Processor: i, Cycle: d.deadAt[i], Cause: cause})
		if firstKill == 0 || d.deadAt[i] < firstKill {
			firstKill = d.deadAt[i]
		}
	}
	end := d.now
	if d.finished {
		end = d.final
	}
	if firstKill > 0 && end > firstKill {
		r.FirstKillCycle = firstKill
		pre, post := 0, 0
		for _, ts := range d.tasks {
			if ts.status != statusCompleted {
				continue
			}
			if ts.resolved <= firstKill {
				pre++
			} else {
				post++
			}
		}
		r.PreKillPerK = float64(pre) / float64(firstKill) * 1000
		r.PostKillPerK = float64(post) / float64(end-firstKill) * 1000
	}
	if d.latency.Count() > 0 {
		r.LatencyMean = d.latency.Mean()
		r.LatencyP50 = d.latency.Percentile(50)
		r.LatencyP99 = d.latency.Percentile(99)
		r.LatencyP999 = d.latency.Percentile(99.9)
		r.LatencyMax = d.latency.Max()
	}
	return r
}

// Now returns the card clock: the last slice boundary reached (0 before
// Start).
func (c *Card) Now() uint64 {
	if c.disp == nil {
		return 0
	}
	return c.disp.now
}

// TaskState is one task's externally visible accounting record.
type TaskState struct {
	ID        int    `json:"id"`
	Completed bool   `json:"completed"`
	Reason    string `json:"reason,omitempty"` // abandon/shed reason, "" for completed/pending
	Attempts  int    `json:"attempts"`
	Processor int    `json:"processor"` // last assignment, -1 if never submitted
	Resolved  uint64 `json:"resolved"`
}

// TaskStates returns the per-task accounting in submission order; nil
// before Start. The chaos harness uses it to decide which workloads are
// still functionally verifiable after re-execution.
func (c *Card) TaskStates() []TaskState {
	d := c.disp
	if d == nil {
		return nil
	}
	out := make([]TaskState, 0, len(d.tasks))
	for _, ts := range d.tasks {
		out = append(out, TaskState{
			ID:        ts.task.ID,
			Completed: ts.status == statusCompleted,
			Reason:    ts.reason,
			Attempts:  ts.attempts,
			Processor: ts.chip,
			Resolved:  ts.resolved,
		})
	}
	return out
}

// AccountingFingerprint hashes the canonical per-task final state (ID,
// status, reason, attempts, last processor, resolution cycle) plus the
// card clock. Two runs of the same scenario are bit-identical iff their
// fingerprints match — the chaos harness's cross-partition and
// restore-determinism comparison primitive.
func (c *Card) AccountingFingerprint() uint64 {
	d := c.disp
	if d == nil {
		return 0
	}
	tab := crc64.MakeTable(crc64.ECMA)
	buf := make([]byte, 0, len(d.tasks)*48)
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	for _, ts := range d.tasks {
		u64(uint64(ts.task.ID))
		u64(uint64(ts.status))
		buf = append(buf, ts.reason...)
		u64(uint64(ts.attempts))
		u64(uint64(int64(ts.chip)))
		u64(ts.resolved)
	}
	end := d.now
	if d.finished {
		end = d.final
	}
	u64(end)
	return crc64.Checksum(buf, tab)
}

// Snapshot is the card-level JSON metrics export: the dispatch accounting
// plus one chip.Snapshot per processor.
type Snapshot struct {
	Label      string          `json:"label,omitempty"`
	Workload   string          `json:"workload,omitempty"`
	Processors int             `json:"processors"`
	Cycles     uint64          `json:"cycles"`
	Seconds    float64         `json:"seconds"`
	Dispatch   DispatchReport  `json:"dispatch"`
	Chips      []chip.Snapshot `json:"chips"`
}

// Snapshot captures the card's current metrics under the unified schema.
func (c *Card) Snapshot(label, workload string) Snapshot {
	cycles := uint64(0)
	if d := c.disp; d != nil {
		cycles = d.now
		if d.finished {
			cycles = d.final
		}
	}
	s := Snapshot{
		Label:      label,
		Workload:   workload,
		Processors: len(c.chips),
		Cycles:     cycles,
		Seconds:    c.Seconds(cycles),
		Dispatch:   c.Report(),
	}
	for i, ch := range c.chips {
		s.Chips = append(s.Chips, ch.Snapshot(fmt.Sprintf("proc%d", i), workload))
	}
	return s
}

// WriteJSON renders the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
