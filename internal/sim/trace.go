// Event tracing for the cycle engine. A Trace records component activity
// spans (awake vs quiescent), wake-up causes (timer vs port delivery), port
// deliveries, and component-emitted domain events, and exports them as
// Chrome trace-event JSON so a run can be inspected in chrome://tracing or
// Perfetto (one "process" per shard, one "thread" per component, the
// cycle counter standing in for microseconds). Buffers are indexed by
// shard — the stable unit, independent of how shards are assigned to
// execution partitions — so traces are identical at every partition count.
//
// Tracing is strictly observational: it never changes what the engine
// executes, so simulated histories are bit-identical with tracing on or
// off. When no Trace is installed the hooks are single nil pointer checks
// on state transitions only, so the disabled cost is unmeasurable.
package sim

import (
	"fmt"
	"io"
	"sync"
)

type traceKind uint8

const (
	evActive      traceKind = iota // component awake over [start,end)
	evSleep                        // component quiescent over [start,end)
	evWakeTimer                    // instant: self-scheduled timer wake
	evWakeDeliver                  // instant: woken by a port delivery
	evDeliver                      // instant: messages committed to an owned port
	evCustom                       // component-emitted domain event
)

type traceEvent struct {
	kind       traceKind
	comp       int32 // index within the shard; -1 for shard-level
	start, end uint64
	cat, name  string // only for evCustom
}

// compTrack remembers which span a component is currently inside.
type compTrack struct {
	since  uint64
	asleep bool
}

// DefaultTraceEvents bounds a Trace's memory when no explicit limit is
// given: events past the cap are counted as dropped, not recorded.
const DefaultTraceEvents = 1 << 20

// Trace is an event recorder installed with Engine.SetTrace. Buffers are
// per shard, written only by the goroutine of the partition that currently
// owns the shard (the round barriers order them against the exporting
// goroutine and across reassignments), so recording takes no locks on the
// engine's hot paths. Component-emitted events (Emit) go through a mutex:
// they are rare, cross-cutting, and may fire from any partition.
type Trace struct {
	limit   int
	bufs    [][]traceEvent
	track   [][]compTrack
	names   [][]string
	labels  []string
	dropped []uint64

	mu     sync.Mutex
	custom []traceEvent
	cdrop  uint64
}

// NewTrace returns a trace that keeps at most limit events per shard
// (limit <= 0 selects DefaultTraceEvents).
func NewTrace(limit int) *Trace {
	if limit <= 0 {
		limit = DefaultTraceEvents
	}
	return &Trace{limit: limit}
}

// SetTrace installs (or, with nil, removes) an event trace. Install before
// Run/Step; the trace captures each component's current awake/asleep state
// as its opening span.
func (e *Engine) SetTrace(t *Trace) {
	e.trace = t
	for _, sh := range e.shards {
		sh.tr = t
	}
	if t == nil {
		return
	}
	t.bufs = make([][]traceEvent, len(e.shards))
	t.track = make([][]compTrack, len(e.shards))
	t.names = make([][]string, len(e.shards))
	t.dropped = make([]uint64, len(e.shards))
	t.labels = make([]string, len(e.shards))
	for si, sh := range e.shards {
		t.labels[si] = sh.label
		t.track[si] = make([]compTrack, len(sh.comps))
		t.names[si] = make([]string, len(sh.comps))
		for ci, cs := range sh.comps {
			t.track[si][ci] = compTrack{since: e.now, asleep: cs.asleep}
			if s, ok := cs.t.(fmt.Stringer); ok {
				t.names[si][ci] = s.String()
			} else {
				t.names[si][ci] = fmt.Sprintf("%T#%d", cs.t, ci)
			}
		}
	}
}

// push appends an event to a partition buffer, honouring the cap.
func (t *Trace) push(pi int, ev traceEvent) {
	if len(t.bufs[pi]) >= t.limit {
		t.dropped[pi]++
		return
	}
	t.bufs[pi] = append(t.bufs[pi], ev)
}

// wake closes the component's sleep span and opens an active span at now,
// recording the wake cause. Called from the owning partition's tick phase.
func (t *Trace) wake(pi int, ci int32, now uint64, byTimer bool) {
	tr := &t.track[pi][ci]
	if now > tr.since {
		t.push(pi, traceEvent{kind: evSleep, comp: ci, start: tr.since, end: now})
	}
	kind := evWakeDeliver
	if byTimer {
		kind = evWakeTimer
	}
	t.push(pi, traceEvent{kind: kind, comp: ci, start: now})
	tr.since, tr.asleep = now, false
}

// sleep closes the component's active span: it quiesced at the end of the
// cycle before at. Called from the owning partition's commit phase.
func (t *Trace) sleep(pi int, ci int32, at uint64) {
	tr := &t.track[pi][ci]
	if at > tr.since {
		t.push(pi, traceEvent{kind: evActive, comp: ci, start: tr.since, end: at})
	}
	tr.since, tr.asleep = at, true
}

// deliver records a port delivery to a registered owner. Called from the
// owner partition's port phase.
func (t *Trace) deliver(pi int, ci int32, now uint64) {
	t.push(pi, traceEvent{kind: evDeliver, comp: ci, start: now})
}

// Emit records a component-level domain event (task dispatch, DRAM batch,
// MACT flush, ...). Safe from any partition goroutine; the per-Trace cap
// applies (at the same limit as one partition buffer).
func (t *Trace) Emit(cat, name string, cycle uint64) {
	t.mu.Lock()
	if len(t.custom) >= t.limit {
		t.cdrop++
	} else {
		t.custom = append(t.custom, traceEvent{kind: evCustom, comp: -1, start: cycle, cat: cat, name: name})
	}
	t.mu.Unlock()
}

// Dropped returns how many events were discarded because a buffer hit its
// cap. A non-zero value means the trace is a prefix, not the whole run.
func (t *Trace) Dropped() uint64 {
	var n uint64
	for _, d := range t.dropped {
		n += d
	}
	t.mu.Lock()
	n += t.cdrop
	t.mu.Unlock()
	return n
}

// WriteTrace exports the installed trace as Chrome trace-event JSON,
// closing still-open spans at the current cycle. Call after (not during)
// Run or Step.
func (e *Engine) WriteTrace(w io.Writer) error {
	if e.trace == nil {
		return fmt.Errorf("sim: no trace installed (see Engine.SetTrace)")
	}
	return e.trace.writeChrome(w, e.now)
}

// jsonEscape escapes a string for embedding in a JSON literal. Component
// names are Go identifiers and short diagnostics; only quotes, backslashes
// and control characters need care.
func jsonEscape(s string) string {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == '"' || c == '\\' || c < 0x20 {
			b := make([]byte, 0, len(s)+8)
			for j := 0; j < len(s); j++ {
				switch c := s[j]; {
				case c == '"' || c == '\\':
					b = append(b, '\\', c)
				case c < 0x20:
					b = append(b, []byte(fmt.Sprintf("\\u%04x", c))...)
				default:
					b = append(b, c)
				}
			}
			return string(b)
		}
	}
	return s
}

// writeChrome streams the trace in the Chrome trace-event "JSON object
// format": {"traceEvents":[...],"displayTimeUnit":"ns"}. ts/dur are the
// engine's cycle numbers.
func (t *Trace) writeChrome(w io.Writer, now uint64) error {
	bw := &errWriter{w: w}
	bw.printf(`{"traceEvents":[`)
	first := true
	emit := func(format string, args ...any) {
		if !first {
			bw.printf(",\n")
		}
		first = false
		bw.printf(format, args...)
	}
	for pi, label := range t.labels {
		emit(`{"ph":"M","pid":%d,"name":"process_name","args":{"name":"%s"}}`, pi, jsonEscape(label))
		for ci, name := range t.names[pi] {
			emit(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":"%s"}}`, pi, ci, jsonEscape(name))
		}
	}
	span := func(pi int, ev traceEvent, name string) {
		emit(`{"ph":"X","pid":%d,"tid":%d,"name":"%s","cat":"engine","ts":%d,"dur":%d}`,
			pi, ev.comp, name, ev.start, ev.end-ev.start)
	}
	instant := func(pi int, ev traceEvent, name string) {
		emit(`{"ph":"i","pid":%d,"tid":%d,"name":"%s","cat":"engine","ts":%d,"s":"t"}`,
			pi, ev.comp, name, ev.start)
	}
	for pi := range t.bufs {
		for _, ev := range t.bufs[pi] {
			switch ev.kind {
			case evActive:
				span(pi, ev, "active")
			case evSleep:
				span(pi, ev, "sleep")
			case evWakeTimer:
				instant(pi, ev, "wake:timer")
			case evWakeDeliver:
				instant(pi, ev, "wake:deliver")
			case evDeliver:
				instant(pi, ev, "deliver")
			}
		}
		// Close the span each component is still inside.
		for ci := range t.track[pi] {
			tr := t.track[pi][ci]
			if now <= tr.since {
				continue
			}
			name := "active"
			if tr.asleep {
				name = "sleep"
			}
			span(pi, traceEvent{comp: int32(ci), start: tr.since, end: now}, name)
		}
	}
	t.mu.Lock()
	custom := t.custom
	t.mu.Unlock()
	for _, ev := range custom {
		emit(`{"ph":"i","pid":%d,"tid":0,"name":"%s","cat":"%s","ts":%d,"s":"g"}`,
			len(t.labels), jsonEscape(ev.name), jsonEscape(ev.cat), ev.start)
	}
	if len(custom) > 0 {
		emit(`{"ph":"M","pid":%d,"name":"process_name","args":{"name":"events"}}`, len(t.labels))
	}
	bw.printf("\n],\"displayTimeUnit\":\"ns\"}\n")
	return bw.err
}

// errWriter folds write errors so export code stays linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
