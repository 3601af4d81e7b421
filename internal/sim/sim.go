// Package sim provides the deterministic cycle-level simulation kernel that
// every SmarCo component is built on.
//
// Within a shard (see below), each cycle has three phases: every active
// component's Tick is called (compute phase: read state that was committed
// at the end of the previous cycle, stage new outputs), dirty ports are
// committed (staged messages become visible in deterministic order), then
// every active component's Commit is called. Because Tick never observes
// another component's same-cycle writes, the order in which components are
// ticked does not affect results.
//
// Components in different shards interact only through cross-shard ports
// (AddCrossPortFor), which declare a minimum delivery latency. That
// latency is each shard's window: the cycles it may run ahead of its
// producers. The engine advances in windows of min-clock rounds (DESIGN.md
// §12 and §14): in each round, every shard whose clock is the lowest runs
// its next block of cycles, and the round ends by sealing the cross-shard
// sends it staged. A window every shard's block spans is a single round,
// and a single cycle (Step, or a wiring without cross ports) is a
// one-cycle window. Deliveries are released on the exact cycle their
// timestamp dictates, so every partition count produces the identical
// history.
//
// Components may implement Quiescer to be skipped while idle: a quiescent
// component is removed from its shard's active list and re-armed by a
// port delivery (via the port's deliver callback) or by a self-declared
// wake-up cycle (a per-shard timer heap). The active list is kept in
// registration order, so skipping is invisible to the simulated history —
// see DESIGN.md for the protocol a component must follow to be skippable.
//
// Components are registered in shards: stable groups (one per sub-ring, one
// per memory controller, ...) that always execute together. Shards are the
// unit of load balancing: the engine assigns shards to execution partitions
// (SetMaxPartitions; one, the default, runs everything on the caller) using
// deterministic per-shard load estimates (accumulated component-tick
// counts, or component counts before any cycle has run). The assignment
// never touches architectural state: simulated histories are bit-identical
// at every partition count by construction.
//
// With several partitions the engine reproduces the conservative
// synchronous PDES scheme the paper's simulation framework uses: partitions
// run a round's blocks concurrently, and the barrier after each round
// provides the lookahead that makes the synchronization safe. A round
// heavy enough to pay for a worker handoff goes to one goroutine per
// partition; lighter rounds run every partition inline on the caller
// (DESIGN.md §7). Ports are committed by the partition that owns the
// receiving component's shard, so commit work parallelizes with the rest
// of the round.
package sim

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrBudget is wrapped by Run's error when the cycle budget ran out before
// the done condition held; test with errors.Is.
var ErrBudget = errors.New("cycle budget exhausted")

// ErrStalled is wrapped by Run's error when the progress watchdog detected
// a wedged simulation; test with errors.Is.
var ErrStalled = errors.New("no progress (wedged)")

// Ticker is implemented by every simulated component.
//
// Tick runs in the compute phase of a cycle: it may read any state committed
// in earlier cycles and may stage outputs (typically via Port.Send), but it
// must not make state visible to other components. Commit runs in the commit
// phase and publishes the staged state.
type Ticker interface {
	Tick(now uint64)
	Commit(now uint64)
}

// WakeNever means a quiescent component has no self-scheduled wake-up: only
// a port delivery (or an explicit wake) re-arms it.
const WakeNever = ^uint64(0)

// Quiescer is optionally implemented by components that can be skipped while
// idle. The engine calls Quiescent after the component's Commit; returning
// idle=true promises that, absent new port deliveries, every future Tick
// before wakeAt would be a no-op (no state change, no sends, no stats).
// wakeAt is the first cycle the component must tick again on its own
// (WakeNever when only deliveries matter); wakeAt <= now keeps it awake.
//
// The contract a quiescent component accepts: it is NOT ticked again until
// one of its registered input ports (see Engine.AddPortFor) delivers a
// message, its wakeAt cycle arrives, or another component wakes it through
// the Wakeable callback. Reporting idle while holding undelivered input or
// internal work silently freezes that work.
type Quiescer interface {
	Quiescent(now uint64) (idle bool, wakeAt uint64)
}

// CatchUpper is optionally implemented by components that account per-cycle
// statistics (cycle counts, occupancy integrals). Engine.Settle calls
// CatchUp so a component that slept through the tail of a run can pad its
// counters up to the current cycle before metrics are read.
type CatchUpper interface {
	CatchUp(now uint64)
}

// Wakeable is optionally implemented by components that can be mutated
// outside the port system (e.g. a scheduler hard-killing a core). The
// engine installs a wake callback at registration; the component must
// invoke it whenever such a mutation gives it new work, or the engine may
// never tick it again. The callback may be invoked only from the Tick or
// Commit of a component in the same shard, or by host code between runs
// (or from Run's done callback): the shard's woken list takes no lock.
type Wakeable interface {
	SetWake(func())
}

// ProgressReporter is optionally implemented by components that perform
// observable work. The engine's watchdog sums Progress across all reporters;
// an interval with no change anywhere, while some component still holds
// pending work, means the simulation is wedged.
type ProgressReporter interface {
	// Progress returns a monotonically non-decreasing work counter.
	Progress() uint64
}

// HealthReporter is optionally implemented by components that can describe
// what they are waiting on. Health returns "" when the component is
// quiescent (nothing pending — a legitimate idle), or a short diagnostic
// ("4 queued, 0 free contexts") when it holds unfinished work.
type HealthReporter interface {
	Health() string
}

// DefaultWatchdogCycles is the default zero-progress observation interval.
// The watchdog needs two consecutive stuck intervals to fire, so the
// effective detection latency is twice this.
const DefaultWatchdogCycles = 10_000

// committer is the commit half of Ticker, implemented by Port so the engine
// can flush staged messages between the two phases. A port registered
// with AddPort or AddPortFor must also implement dirtyNotifier.
type committer interface {
	Commit(now uint64)
}

// deliverNotifier is implemented by Port: the engine installs a callback so
// a delivery re-arms the quiesced owner. The callback receives the first
// cycle the delivered messages are visible to the consumer.
type deliverNotifier interface {
	SetOnDeliver(func(visibleAt uint64))
}

// CrossPort is the engine-facing interface of a cross-shard port: a *Port
// registered with AddCrossPortFor. Cross-shard ports declare a minimum
// delivery latency and buffer sends across round barriers (Seal), releasing
// each message on the exact cycle its timestamp dictates (ReleaseDue) — the
// mechanism behind conservative multi-cycle lookahead. The unexported
// method restricts implementations to this package's Port.
type CrossPort interface {
	Seal(now uint64)
	ReleaseDue(nextTick uint64)
	NextDue() uint64
	MinLatency() uint64
	SetOnDirty(func())
	SetOnDeliver(func(visibleAt uint64))
	markCross()
}

// dirtyNotifier is implemented by Port: the engine installs a callback fired
// on the clean→dirty transition (the first Send of a cycle), which enqueues
// the port on its owning shard's commit list. The port-commit phase then
// visits only ports that were actually sent to, instead of every registered
// port.
type dirtyNotifier interface {
	SetOnDirty(func())
}

// compState tracks one registered component. woken marks a component
// queued on its shard's woken list; like the list, it is written only on
// the goroutine executing the shard (port deliveries, same-shard Wakeable
// calls, the wake and quiesce steps) or between dispatches (barrier
// releases, host code), so it is a plain field.
type compState struct {
	t      Ticker
	q      Quiescer
	asleep bool
	woken  bool
	sh     *shard // owning shard; never changes after registration
	si     int32  // index within the shard
}

// shard is a stable group of components that always execute together: the
// atomic unit of load balancing. A shard's identity (id, label, component
// membership, port ownership) is fixed at registration; only its execution
// partition changes, and only at cycle barriers.
type shard struct {
	id     int
	label  string
	comps  []*compState
	active []int32 // indices into comps, ascending (registration order)
	timers timerHeap
	// dirtyPorts holds the registered ports sent to since the last port
	// phase: each self-enqueues via its onDirty hook, so clean ports cost
	// nothing per cycle. It is appended by the goroutine that sends, which
	// is the one executing this shard (a plain port's producers share its
	// owner's shard), and drained by portPhase, so it takes no lock.
	dirtyPorts []committer
	asleep     int    // number of comps with asleep set
	cur        Ticker // component under execution, for panic diagnostics
	at         uint64 // cycle under execution (set by tickPhase), likewise

	// workAt is the first cycle at which the shard next has work: 0 (at
	// once) while a component is active or woken or a port is dirty,
	// otherwise the earlier of its timer heap's head and crossDue. A round
	// skips every phase of the shard before it (runCycles). Wakes, dirtied
	// ports and seals lower it; Run and Step reset it to 0 on entry,
	// because host code may change state between calls.
	workAt uint64

	// crossIn holds the cross-shard ports owned by this shard's components.
	// The shard releases their due deliveries each port phase (sealed
	// entries from earlier rounds whose cycle has arrived); the engine
	// seals freshly staged entries at round barriers. crossDue is a lower
	// bound on their earliest NextDue (WakeNever when none holds an
	// entry): a seal lowers it and each release scan recomputes it, so a
	// shard whose ports hold nothing due skips the scan.
	crossIn  []CrossPort
	crossDue uint64

	// wokenList queues components marked woken since the last tick phase,
	// replacing a per-cycle scan of every component. Appended where a wake
	// fires: port deliveries and Wakeable callbacks from the shard's own
	// Tick or Commit, on the goroutine executing the shard, and barrier
	// releases and host code between dispatches; so it takes no lock.
	// Entries are deduplicated by the woken flag and may be stale by drain
	// time (the drain re-checks asleep and the flag).
	wokenList []int32

	// Deterministic load estimate: ticks accumulates the number of
	// component Ticks this shard has executed (a pure function of the
	// simulated history, identical at every partition count).
	ticks uint64

	// blocks counts the blocks this shard has executed in multi-cycle
	// windows (one-cycle windows do not count). A wall-time diagnostic
	// like Epochs: never part of the simulated history, never
	// checkpointed.
	blocks uint64

	// Current execution assignment. Written only between dispatches, read
	// during them; the dispatch generation counter orders the two.
	part *partition

	// Observability (nil when disabled). tr/prof mirror the engine's
	// installed trace/profiler so the phase methods need no engine pointer.
	tr   *Trace
	prof *Profile
}

// markDirty enqueues a port for commit at this shard's next port phase
// and wakes the shard. Called on the goroutine executing the shard (a
// Send from one of its components) or by host code between runs.
func (sh *shard) markDirty(pt committer) {
	sh.dirtyPorts = append(sh.dirtyPorts, pt)
	sh.workAt = 0
}

// markWoken flags a component for wake-up at the shard's next tick phase
// and wakes the shard. The woken flag bounds the queue: a component already
// marked is not appended again, and the flag is cleared when the component
// wakes or (stale marks) when it quiesces with all deliveries visible.
func (sh *shard) markWoken(cs *compState) {
	if !cs.woken {
		cs.woken = true
		sh.wokenList = append(sh.wokenList, cs.si)
		sh.workAt = 0
	}
}

// partition is one unit of parallelism: the set of shards one goroutine
// executes when a round is handed to the workers. cur is the shard under
// execution, which panic recovery reads to name the failing component and
// cycle.
type partition struct {
	pi     int
	shards []*shard
	cur    *shard
}

// Engine drives a set of components cycle by cycle.
type Engine struct {
	comps  []*compState // flat, registration order (shard by shard)
	shards []*shard
	parts  []*partition // execution units; rebuilt by ensureParts
	owners map[Ticker]*compState
	now    uint64

	maxParts int // cap on execution partitions; 0 = one per CPU

	// Watchdog state. stuckSince is the first cycle of the current
	// zero-progress streak (0 = not stuck): counting in simulated cycles
	// instead of check intervals keeps the firing cycle independent of the
	// window length.
	watchEvery uint64
	reporters  []ProgressReporter
	lastSum    uint64
	lastCheck  uint64
	stuckSince uint64

	// Conservative lookahead state. crossPorts lists every registered
	// cross-shard port; dirtyCross queues the indices of the ones sent to
	// since the last seal (self-enqueued via their onDirty hook) for
	// sealing. lookahead is the configured window cap (0 = auto); epochs
	// counts completed multi-cycle windows for observability.
	crossPorts []CrossPort
	crossOwner []*shard // the shard owning each crossPorts entry
	sinkPorts  []committer
	crossMu    sync.Mutex // guards dirtyCross appends from partition goroutines
	dirtyCross []int32
	lookahead  uint64
	epochs     uint64

	// Window state (DESIGN.md §14). shardWins holds each shard's effective
	// window for the current Run, indexed by shard id, and minWin the
	// narrowest of them (at least 1). roundClock and roundEnd bound the
	// round being dispatched; clocks holds each shard's clock within a
	// window of several rounds, and is nil in a window of one round, where
	// every shard's block spans the whole window. The coordinator writes
	// all of it before a dispatch; winClocks backs clocks.
	shardWins  []uint64
	minWin     uint64
	winClocks  []uint64
	clocks     []uint64
	roundClock uint64
	roundEnd   uint64

	// First panic recovered from a partition phase. errCount mirrors
	// len(errs) so the per-cycle Err poll is one atomic load.
	errMu    sync.Mutex
	errs     []partitionErr
	errCount atomic.Int32

	// Dispatch barrier (DESIGN.md §7). While workers run (inside Run, with
	// several partitions), partition 0 executes on the coordinating
	// goroutine and workers[i] executes partition i+1. The coordinator
	// publishes the round (or stop), sets pending, and bumps gen; each
	// worker runs its partition's share of the round and decrements
	// pending. Both sides wait with parkers.
	stop    bool
	gen     atomic.Uint64
	pending atomic.Int32
	workers []*parker // nil when no workers run
	coord   parker
	wg      sync.WaitGroup

	// handoffMin is the estimated work (component ticks, see roundWork) from
	// which a dispatch is handed to the workers; lighter ones run inline.
	// handoffWork unless a test lowers it to hand off every dispatch.
	// dispatched counts the dispatches made while workers ran and handoffs
	// the ones handed to them: wall-time diagnostics like epochs, never
	// checkpointed.
	handoffMin uint64
	dispatched uint64
	handoffs   uint64

	// Observability hooks; both nil unless installed (SetTrace/SetProfile).
	trace *Trace
	prof  *Profile
}

// TraceFn records a component-domain trace event (category, name, cycle).
// Components hold one as a nil-checked field so emitting costs nothing
// until a trace is wired in; see Trace.Emit.
type TraceFn func(cat, name string, cycle uint64)

// partitionErr records a panic recovered in one partition's round, with
// the cycle the failing shard was executing.
type partitionErr struct {
	partition int
	cycle     uint64
	component Ticker
	value     any
}

// NewEngine returns an empty engine with one execution partition.
func NewEngine() *Engine {
	return &Engine{owners: map[Ticker]*compState{}, maxParts: 1, minWin: 1, handoffMin: handoffWork}
}

// SetMaxPartitions sets the engine's one concurrency setting: the number
// of execution partitions is at most n, never more than the shard count,
// and 0 means one per CPU (GOMAXPROCS at assignment time). With one
// partition, where NewEngine starts, Run starts no workers. Execution
// partitioning is a wall-time concern only; simulated results are
// identical for every value. A negative n panics.
func (e *Engine) SetMaxPartitions(n int) {
	if n < 0 {
		panic(fmt.Sprintf("sim: SetMaxPartitions(%d): partition count must be at least 0", n))
	}
	if e.maxParts != n {
		e.maxParts = n
		e.invalidateParts()
	}
}

// AddShard registers a named group of components that always execute
// together — the atomic unit of load balancing — and returns its shard id.
// Components in different shards must interact only through cross-shard
// ports (AddCrossPortFor): a shard runs its cycles without waiting for the
// others, so a plain port, or state read directly, must stay within one
// shard.
func (e *Engine) AddShard(label string, components ...Ticker) int {
	sh := &shard{id: len(e.shards), label: label, crossDue: WakeNever}
	if sh.label == "" {
		sh.label = fmt.Sprintf("shard%d", sh.id)
	}
	e.shards = append(e.shards, sh)
	e.invalidateParts()
	e.addToShard(sh, components...)
	return sh.id
}

// Add registers components into the default (first) shard.
func (e *Engine) Add(components ...Ticker) {
	if len(e.shards) == 0 {
		e.AddShard("")
	}
	e.addToShard(e.shards[0], components...)
}

func (e *Engine) addToShard(sh *shard, components ...Ticker) {
	for _, t := range components {
		cs := &compState{t: t, sh: sh, si: int32(len(sh.comps))}
		cs.q, _ = t.(Quiescer)
		sh.comps = append(sh.comps, cs)
		sh.active = append(sh.active, cs.si)
		e.comps = append(e.comps, cs)
		if comparableTicker(t) {
			e.owners[t] = cs
		}
		if w, ok := t.(Wakeable); ok {
			w.SetWake(func() { sh.markWoken(cs) })
		}
		if pr, ok := t.(ProgressReporter); ok {
			e.reporters = append(e.reporters, pr)
		}
	}
}

// comparableTicker guards the owner map against dynamic types that would
// panic as map keys (components are normally pointers, which are fine).
func comparableTicker(t Ticker) bool {
	return t != nil && reflect.TypeOf(t).Comparable()
}

// AddPort registers a port with no owning component in the default (first)
// shard: it is flushed between the tick and commit phases but delivers no
// wake-up. Use AddPortFor for ports feeding a component that quiesces.
func (e *Engine) AddPort(p committer) {
	if len(e.shards) == 0 {
		e.AddShard("")
	}
	registerPort(e.shards[0], p)
}

// registerPort wires p for commit by sh through its dirty-queue hook. A
// committer without the hook (anything but a *Port) is a wiring error: the
// port phase visits only ports that enqueued themselves.
func registerPort(sh *shard, p committer) {
	dn, ok := p.(dirtyNotifier)
	if !ok {
		panic(fmt.Sprintf("sim: port %T has no dirty hook (register a *sim.Port)", p))
	}
	dn.SetOnDirty(func() { sh.markDirty(p) })
}

// AddPortFor registers input ports of owner: they are committed by the
// owner's shard (parallelizing commit work) and a delivery on any of them
// re-arms the owner if it has quiesced. Falls back to unowned registration
// when owner was never registered. The parameter type is the anonymous form
// of committer so component Ports() slices pass through.
func (e *Engine) AddPortFor(owner Ticker, ports ...interface{ Commit(now uint64) }) {
	var cs *compState
	if comparableTicker(owner) {
		cs = e.owners[owner]
	}
	if cs == nil {
		for _, p := range ports {
			e.AddPort(p)
		}
		return
	}
	sh, si := cs.sh, cs.si
	for _, p := range ports {
		if dn, ok := p.(deliverNotifier); ok {
			// The callback fires from Port.Commit during the owning shard's
			// port phase (or from a barrier release on the coordinator, with
			// workers idle), so the trace write below lands in that shard's
			// buffer without extra synchronization.
			dn.SetOnDeliver(func(visibleAt uint64) {
				sh.markWoken(cs)
				if t := e.trace; t != nil {
					t.deliver(sh.id, si, visibleAt)
				}
			})
		}
		registerPort(sh, p)
	}
}

// AddCrossPortFor registers input ports of owner whose producers live in a
// different shard. A cross-shard port must declare its link's minimum
// delivery latency (Port.SetMinLatency) and be sent to with SendFrom; the
// owner's shard window (its conservative lookahead) is the minimum declared
// latency over its shard's cross-shard ports. Deliveries are sealed at the
// end of each round and released on the exact cycle their timestamp
// dictates, so the simulated history is bit-identical to single-cycle
// execution. Unlike AddPortFor, the owner must be a registered component.
func (e *Engine) AddCrossPortFor(owner Ticker, ports ...CrossPort) {
	var cs *compState
	if comparableTicker(owner) {
		cs = e.owners[owner]
	}
	if cs == nil {
		panic("sim: AddCrossPortFor owner is not a registered component")
	}
	sh, si := cs.sh, cs.si
	for _, cp := range ports {
		cp.markCross()
		idx := int32(len(e.crossPorts))
		e.crossPorts = append(e.crossPorts, cp)
		e.crossOwner = append(e.crossOwner, sh)
		cp.SetOnDirty(func() { e.markCrossDirty(idx) })
		cp.SetOnDeliver(func(visibleAt uint64) {
			sh.markWoken(cs)
			if t := e.trace; t != nil {
				t.deliver(sh.id, si, visibleAt)
			}
		})
		sh.crossIn = append(sh.crossIn, cp)
	}
}

// markCrossDirty queues cross-shard port idx for sealing at the end of the
// round. Fired at most once per port per round (the port's dirty flag).
func (e *Engine) markCrossDirty(idx int32) {
	e.crossMu.Lock()
	e.dirtyCross = append(e.dirtyCross, idx)
	e.crossMu.Unlock()
}

// AddSinkPort registers a port consumed outside the simulated component
// graph (a host-side collector). Sink ports are committed at window
// barriers only, so with windows longer than a cycle the host observes
// deliveries quantized to barriers — harness code that reads them between
// Run calls sees the same history either way.
func (e *Engine) AddSinkPort(p committer) {
	e.sinkPorts = append(e.sinkPorts, p)
}

// SetLookahead caps every shard's window: the number of cycles a shard
// runs between synchronizations. 0 (the default) leaves each shard its
// full safe window — the minimum declared MinLatency over its cross-shard
// input ports; explicit values can only lower it (1 runs one-cycle
// windows, a barrier every cycle). Results are bit-identical for every
// setting.
func (e *Engine) SetLookahead(n uint64) { e.lookahead = n }

// autoLookahead returns the narrowest uncapped window: the minimum
// declared delivery latency over all cross-shard ports (1 when none are
// registered). On uniform-latency wirings it coincides with the done grid
// (doneGrid); heterogeneous wirings split the two — the narrowest link
// bounds this while the grid follows the widest shard window.
func (e *Engine) autoLookahead() uint64 {
	la := uint64(1)
	for i, cp := range e.crossPorts {
		if lat := cp.MinLatency(); i == 0 || lat < la {
			la = lat
		}
	}
	return la
}

// Lookahead returns the narrowest effective shard window: the engine-wide
// minimum, capped by SetLookahead.
func (e *Engine) Lookahead() uint64 {
	la := e.autoLookahead()
	if e.lookahead > 0 && e.lookahead < la {
		la = e.lookahead
	}
	return la
}

// Epochs returns the number of completed multi-cycle windows (one-cycle
// windows are not counted); the per-shard block counts are in
// WindowReport.
func (e *Engine) Epochs() uint64 { return e.epochs }

// shardBaseWindow is the shard's wiring-determined safe block length: the
// minimum declared delivery latency over its incoming cross-shard ports,
// or 0 when it has none (such a shard receives no cross-shard input and
// is bounded only by the done grid).
func shardBaseWindow(sh *shard) uint64 {
	var w uint64
	for i, cp := range sh.crossIn {
		if lat := cp.MinLatency(); i == 0 || lat < w {
			w = lat
		}
	}
	return w
}

// doneGrid returns the pitch of the absolute cycle grid on which Run
// evaluates the done condition and the watchdog: the maximum per-shard
// base window (1 when no cross ports are registered). Like autoLookahead
// it is a pure function of the wiring — independent of SetLookahead — so
// stop cycles are identical at every partition count and cap; on
// uniform-latency wirings it equals autoLookahead. Every grid multiple
// ends a window, where all shard clocks meet.
func (e *Engine) doneGrid() uint64 {
	g := uint64(1)
	for _, sh := range e.shards {
		if w := shardBaseWindow(sh); w > g {
			g = w
		}
	}
	return g
}

// shardWindows fills e.shardWins with each shard's effective window — the
// base window clamped by the SetLookahead override, shards without cross
// inputs bounded by the grid — and e.minWin with the narrowest, and
// returns the slice along with the widest window, which is Run's window
// length.
func (e *Engine) shardWindows(grid uint64) (wins []uint64, maxWin uint64) {
	if cap(e.shardWins) < len(e.shards) {
		e.shardWins = make([]uint64, len(e.shards))
	}
	wins = e.shardWins[:len(e.shards)]
	e.shardWins = wins
	maxWin, e.minWin = 1, grid
	for i, sh := range e.shards {
		w := shardBaseWindow(sh)
		if w == 0 || w > grid {
			w = grid
		}
		if e.lookahead > 0 && e.lookahead < w {
			w = e.lookahead
		}
		wins[i] = w
		maxWin = max(maxWin, w)
		e.minWin = min(e.minWin, w)
	}
	return wins, maxWin
}

// ShardWindow describes one shard's window: Window is the block length
// the shard may run between synchronizations (min incoming cross-port
// latency, clamped by SetLookahead and the done grid), and Blocks counts
// the blocks it has executed in multi-cycle windows — a wall-time
// diagnostic, 0 under cycle-by-cycle execution.
type ShardWindow struct {
	Shard  int    `json:"shard"`
	Label  string `json:"label"`
	Window uint64 `json:"window"`
	Blocks uint64 `json:"blocks,omitempty"`
}

// WindowReport returns the per-shard window picture under the current
// wiring and SetLookahead setting, in shard-id order. Windows are pure
// functions of the wiring and the cap; Blocks depend on how Run and Step
// cut the run into windows.
func (e *Engine) WindowReport() []ShardWindow {
	wins, _ := e.shardWindows(e.doneGrid())
	out := make([]ShardWindow, len(e.shards))
	for i, sh := range e.shards {
		out[i] = ShardWindow{Shard: sh.id, Label: sh.label, Window: wins[i], Blocks: sh.blocks}
	}
	return out
}

// SetWatchdog sets the zero-progress observation interval in cycles
// (0 disables the watchdog). The watchdog is evaluated inside Run: when the
// summed component progress does not change over two consecutive intervals
// while at least one component reports pending work, Run returns a
// diagnostic error naming the stalled components instead of silently
// burning the remaining cycle budget.
func (e *Engine) SetWatchdog(cycles uint64) { e.watchEvery = cycles }

// Now returns the current cycle number (the number of completed cycles).
func (e *Engine) Now() uint64 { return e.now }

// invalidateParts drops the current shard→partition assignment so the next
// Step/Run recomputes it. Never called while workers are running: all the
// mutating entry points (registration, SetMaxPartitions) happen
// between runs.
func (e *Engine) invalidateParts() {
	e.stopWorkers()
	e.parts = nil
	for _, sh := range e.shards {
		sh.part = nil
	}
}

// Partitions returns the number of execution partitions the current
// assignment uses.
func (e *Engine) Partitions() int {
	e.ensureParts()
	return len(e.parts)
}

// ensureParts builds the execution partitions and the shard assignment if
// they are missing: min(cap, shard count) partitions, where a cap of 0 is
// GOMAXPROCS, so by default a single-CPU host runs one partition.
func (e *Engine) ensureParts() {
	if e.parts != nil {
		return
	}
	n := e.maxParts
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	n = max(min(n, len(e.shards)), 1)
	e.parts = make([]*partition, n)
	for i := range e.parts {
		e.parts[i] = &partition{pi: i}
	}
	e.assign()
}

// loadEstimate is the deterministic per-shard load input to assignment:
// the tick count accumulated so far, falling back, before any cycles have
// run, to the component count. Always at least 1 so empty shards still get
// assigned.
func (sh *shard) loadEstimate() uint64 {
	if sh.ticks > 0 {
		return sh.ticks
	}
	if n := uint64(len(sh.comps)); n > 0 {
		return n
	}
	return 1
}

// assign distributes shards over the current partitions with the classic
// LPT (longest processing time first) greedy heuristic: shards in
// descending load order, each placed on the least-loaded partition. All
// inputs and tie-breaks are deterministic (load estimates are pure
// functions of the simulated history; ties break on shard id, then on
// partition index), so the same run always produces the same assignment.
func (e *Engine) assign() {
	order := make([]*shard, len(e.shards))
	copy(order, e.shards)
	sort.SliceStable(order, func(i, j int) bool {
		return order[i].loadEstimate() > order[j].loadEstimate()
	})
	loads := make([]uint64, len(e.parts))
	for _, p := range e.parts {
		p.shards = p.shards[:0]
	}
	for _, sh := range order {
		best := 0
		for pi := 1; pi < len(loads); pi++ {
			if loads[pi] < loads[best] {
				best = pi
			}
		}
		loads[best] += sh.loadEstimate()
		p := e.parts[best]
		p.shards = append(p.shards, sh)
		sh.part = p
	}
	// Execute shards within a partition in id order: not required for
	// correctness (shards interact only through cross ports), but it keeps
	// one-partition iteration and diagnostics stable.
	for _, p := range e.parts {
		sort.Slice(p.shards, func(i, j int) bool { return p.shards[i].id < p.shards[j].id })
	}
}

// Step advances the simulation by exactly one cycle. After a component
// panic has been recovered (see Err), Step is a no-op: the faulting
// partition's state is no longer trustworthy.
func (e *Engine) Step() {
	e.syncCross()
	e.advance(1)
}

// advance runs the next n >= 1 cycles as one window of min-clock rounds,
// followed by the window's barrier. Each round picks the minimum
// per-shard clock m; every shard whose clock is m runs one block of
// min(its window, window end - m) cycles (runCycles), and the round ends
// by sealing freshly staged cross-shard sends while all shard work is
// idle. Safe because a shard runnable at the global minimum clock m has
// every producer at clock >= m, so anything it could receive before m +
// its window was sent at least one full link latency earlier and is
// already sealed; and no in-flight send can be due before its consumer's
// clock (latency >= the consumer's window). A window no longer than the
// narrowest shard window (minWin) is a single round in which each shard
// runs the whole window, so it keeps no clocks and its only seal is the
// barrier's. All clocks meet at the window end, so between windows the
// engine holds no window state — checkpoints need none.
func (e *Engine) advance(n uint64) {
	if e.errCount.Load() > 0 {
		return
	}
	e.ensureParts()
	end := e.now + n
	e.roundClock, e.roundEnd, e.clocks = e.now, end, nil
	if n > e.minWin {
		if cap(e.winClocks) < len(e.shards) {
			e.winClocks = make([]uint64, len(e.shards))
		}
		e.clocks = e.winClocks[:len(e.shards)]
		for i := range e.clocks {
			e.clocks[i] = e.now
		}
	}
	for {
		e.dispatch()
		if e.clocks == nil || e.errCount.Load() > 0 {
			break
		}
		e.sealCross()
		if e.roundClock = slices.Min(e.clocks); e.roundClock >= end {
			break
		}
	}
	if n > 1 {
		e.epochs++
	}
	if e.prof != nil {
		e.prof.steps += n
	}
	e.now = end
	e.barrier()
}

// runRound executes partition p's share of the current round: every owned
// shard whose clock is at the round runs its block, skipping the cycles
// before its workAt. In a window of one round every shard's block is the
// whole window, so that loop reads no clock. Distinct partitions touch
// disjoint clocks entries, and the round bounds were published before
// dispatch.
func (e *Engine) runRound(p *partition) {
	m, end := e.roundClock, e.roundEnd
	if e.clocks == nil {
		count := end-m > 1 // blocks of one-cycle windows are not counted
		for _, sh := range p.shards {
			if count {
				sh.blocks++
			}
			if sh.workAt < end {
				p.cur = sh
				sh.runCycles(m, end)
			}
		}
		return
	}
	for _, sh := range p.shards {
		if e.clocks[sh.id] != m {
			continue
		}
		b := e.blockEnd(sh)
		e.clocks[sh.id] = b
		sh.blocks++
		if sh.workAt < b {
			p.cur = sh
			sh.runCycles(m, b)
		}
	}
}

// barrier is the window boundary: freshly staged cross-shard sends are
// sealed into their ports' future lists, entries due at the next cycle are
// released, and sink ports are committed. e.now is the next cycle to
// execute. A send at cycle u arrived with at = u + lat >= window end, so
// sealing cannot race the window's own mid-cycle releases; the release
// here covers exactly the envelopes that fall due immediately (the
// next-cycle delivery of one-cycle windows). Each shard with a delivery
// due releases its own ports, as its next cycle would, which leaves its
// crossDue exact: the shard does not rescan its ports on that cycle with
// nothing due.
func (e *Engine) barrier() {
	if len(e.crossPorts) == 0 && len(e.sinkPorts) == 0 {
		return
	}
	e.sealCross()
	for _, sh := range e.shards {
		sh.releaseCross(e.now)
	}
	for _, pt := range e.sinkPorts {
		pt.Commit(e.now)
	}
}

// sealCross merges every cross-shard port's freshly staged sends into its
// future list (the Seal is ordered by (release,key,seq), so the merge is
// independent of the drain order here) and marks the port pending. Called
// with all shard work idle: at the end of every round of a window of
// several rounds, and at window barriers. The dispatch that just returned
// orders every append to dirtyCross before this read, so it takes no lock.
func (e *Engine) sealCross() {
	for _, idx := range e.dirtyCross {
		e.crossPorts[idx].Seal(e.now)
		e.markPending(int(idx))
	}
	e.dirtyCross = e.dirtyCross[:0]
}

// markPending lowers the owning shard's crossDue to cross port idx's
// earliest sealed delivery, which wakes the shard by then.
func (e *Engine) markPending(idx int) {
	if due := e.crossPorts[idx].NextDue(); due != WakeNever {
		sh := e.crossOwner[idx]
		sh.crossDue = min(sh.crossDue, due)
		sh.workAt = min(sh.workAt, due)
	}
}

// syncCross rebuilds the shards' crossDue bounds from every cross port's
// future list, and wakes every shard. Run and Step call it on entry,
// because between calls host code may have restored ports from a
// checkpoint or otherwise changed state; inside Run only seals add
// entries, and sealCross marks those.
func (e *Engine) syncCross() {
	for _, sh := range e.shards {
		sh.crossDue = WakeNever
		sh.workAt = 0
	}
	for i := range e.crossPorts {
		e.markPending(i)
	}
}

// runCycles runs the shard's cycles [start, end) back to back, one block
// of a round: each cycle first releases the deliveries already due (sealed entries whose cycle has arrived; a
// running shard releases the next cycle's in portPhase), then runs the
// tick, port and commit phases. A cycle before workAt is skipped whole:
// the shard has no component to tick, no port to commit and no delivery
// to release in it, so its phases would change nothing, and the first
// cycle it runs again releases what fell due meanwhile.
func (sh *shard) runCycles(start, end uint64) {
	for t := max(start, sh.workAt); t < end; t = max(t+1, sh.workAt) {
		sh.releaseCross(t)
		sh.tickPhase(t)
		sh.portPhase(t)
		sh.commitPhase(t)
		sh.workAt = sh.nextWork()
	}
}

// nextWork is workAt as of the end of a cycle: 0 while a component is
// active or woken or a port is dirty, otherwise the earlier of the next
// timer and the earliest sealed delivery.
func (sh *shard) nextWork() uint64 {
	if len(sh.active) > 0 || len(sh.wokenList) > 0 || len(sh.dirtyPorts) > 0 {
		return 0
	}
	if len(sh.timers) > 0 {
		return min(sh.timers[0].at, sh.crossDue)
	}
	return sh.crossDue
}

// tickPhase wakes due and delivered-to components, then ticks the active
// list in registration order. It opens the shard's cycle now, which the
// port and commit phases that follow share.
func (sh *shard) tickPhase(now uint64) {
	var t0 time.Time
	if sh.prof != nil {
		t0 = time.Now()
	}
	sh.at = now
	woke := false
	for len(sh.timers) > 0 && sh.timers[0].at <= now {
		idx := sh.timers.pop()
		cs := sh.comps[idx]
		if cs.asleep {
			cs.asleep = false
			cs.woken = false
			sh.asleep--
			sh.active = append(sh.active, idx)
			woke = true
			if sh.tr != nil {
				sh.tr.wake(sh.id, idx, now, true)
			}
		}
	}
	// Entries may be stale (the component woke or quiesced since), hence
	// the re-check.
	for _, idx := range sh.wokenList {
		cs := sh.comps[idx]
		if cs.asleep && cs.woken {
			cs.asleep = false
			cs.woken = false
			sh.asleep--
			sh.active = append(sh.active, idx)
			woke = true
			if sh.tr != nil {
				sh.tr.wake(sh.id, idx, now, false)
			}
		}
	}
	sh.wokenList = sh.wokenList[:0]
	if woke {
		sortActive(sh.active)
	}
	for _, idx := range sh.active {
		cs := sh.comps[idx]
		sh.cur = cs.t
		cs.t.Tick(now)
	}
	sh.cur = nil
	// The deterministic load estimate: one Tick per active component this
	// cycle. Identical at every partition count because the active list is
	// a pure function of the simulated history.
	sh.ticks += uint64(len(sh.active))
	if sh.prof != nil {
		sh.prof.add(sh.id, 0, time.Since(t0))
	}
}

// portPhase commits the ports that were sent to since the last port phase
// (self-enqueued via markDirty).
func (sh *shard) portPhase(now uint64) {
	var t0 time.Time
	if sh.prof != nil {
		t0 = time.Now()
	}
	// No Send runs during a port phase, so the list is not appended to
	// while it drains.
	for i, pt := range sh.dirtyPorts {
		pt.Commit(now)
		sh.dirtyPorts[i] = nil
	}
	sh.dirtyPorts = sh.dirtyPorts[:0]
	// Release cross-shard deliveries falling due mid-block: envelopes
	// sealed at earlier barriers whose cycle has arrived.
	sh.releaseCross(now + 1)
	if sh.prof != nil {
		sh.prof.add(sh.id, 1, time.Since(t0))
	}
}

// releaseCross publishes the shard's cross-shard deliveries due by cycle
// t and recomputes crossDue. A shard with nothing due returns at once
// (the check inlines into the per-cycle callers).
func (sh *shard) releaseCross(t uint64) {
	if sh.crossDue <= t {
		sh.releaseDue(t)
	}
}

func (sh *shard) releaseDue(t uint64) {
	due := WakeNever
	for _, cp := range sh.crossIn {
		next := cp.NextDue()
		if next <= t {
			cp.ReleaseDue(t)
			next = cp.NextDue()
		}
		due = min(due, next)
	}
	sh.crossDue = due
}

// commitPhase commits active components, then lets each declare itself
// quiescent. The quiesce check runs after the port phase, so a component
// that just received a message sees the non-empty input and stays awake.
func (sh *shard) commitPhase(now uint64) {
	var t0 time.Time
	if sh.prof != nil {
		t0 = time.Now()
	}
	for _, idx := range sh.active {
		cs := sh.comps[idx]
		sh.cur = cs.t
		cs.t.Commit(now)
	}
	sh.cur = nil
	keep := sh.active[:0]
	for _, idx := range sh.active {
		cs := sh.comps[idx]
		if cs.q != nil {
			sh.cur = cs.t
			if idle, wakeAt := cs.q.Quiescent(now); idle && wakeAt > now {
				// Deliveries up to this cycle are already visible, so any
				// prior wake mark is stale: clear it alongside.
				cs.woken = false
				cs.asleep = true
				sh.asleep++
				if wakeAt != WakeNever {
					sh.timers.push(timerEntry{at: wakeAt, idx: idx})
				}
				if sh.tr != nil {
					sh.tr.sleep(sh.id, idx, now+1)
				}
				continue
			}
		}
		keep = append(keep, idx)
	}
	sh.cur = nil
	sh.active = keep
	if sh.prof != nil {
		sh.prof.add(sh.id, 2, time.Since(t0))
	}
}

// sortActive restores ascending registration order after wake-ups appended
// out of place. The list is almost sorted, so insertion sort beats
// sort.Slice and allocates nothing.
func sortActive(a []int32) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// runPartition executes partition pi's share of the current round. A
// component panic is recovered into a recorded error (see Err) at every
// partition count, on a worker or on the caller alike.
func (e *Engine) runPartition(pi int) {
	p := e.parts[pi]
	defer e.recoverPartition(pi, p)
	e.runRound(p)
}

// recoverPartition converts a component panic in partition p into a
// recorded error naming the component and the cycle its shard was
// executing.
func (e *Engine) recoverPartition(pi int, p *partition) {
	if r := recover(); r != nil {
		pe := partitionErr{partition: pi, cycle: e.now, value: r}
		if sh := p.cur; sh != nil {
			pe.component, pe.cycle = sh.cur, sh.at
		}
		e.errMu.Lock()
		e.errs = append(e.errs, pe)
		e.errMu.Unlock()
		e.errCount.Add(1)
	}
}

// handoffWork is the estimated work, in component ticks, from which a
// dispatch is worth handing to the workers. A handoff costs a publish, a
// worker's poll or wake-up, and the wait for its pending decrement; it
// saves at most the share of the work the other partitions run
// concurrently, about half with two partitions. Measured on a 2-CPU
// Xeon host (Go 1.24, linux/amd64): BenchmarkDispatch hands off a
// near-empty cycle in about 2.0 µs against 0.4 µs inline, so a handoff
// costs H ≈ 1.6 µs; a serial run of SPM-staged kmeans on the 256-core
// chip spends c ≈ 270 ns per component tick (9.4 s over 35.0M ticks).
// Work W pays for a handoff when W·c/2 > H, so W > 2H/c ≈ 12 ticks with
// perfectly balanced partitions. The constant sits about five times
// higher because a dispatch's work is rarely balanced (a min-clock round
// often runs one shard) and a worker that has parked costs a wake-up
// rather than a poll. On that host every value from 16 to 256 ran all
// but at most 17 of a 64-core kmp run's 1.26M dispatches inline and
// handed 50% (16) to 32% (256) of the 256-core kmeans run's 186k rounds
// to the workers, at the same speed within noise; 1024 kept every round
// inline, which ran the kmeans run at serial speed. Tuning it only moves
// wall time: the partition assignment is the same either way, so
// simulated histories are identical for every value.
const handoffWork = 64

// dispatch runs the current round on every partition and returns once all
// have finished: it is the barrier between the round and whatever the
// caller does next. With workers started and enough work in the round
// (roundWork at least handoffMin), the caller publishes the round, wakes
// the workers, runs partition 0 itself, and waits for the pending count to
// drain, so the round costs one handoff each way. Otherwise it runs every
// partition in turn on the caller.
func (e *Engine) dispatch() {
	if e.workers != nil {
		e.dispatched++
		if e.roundWork() >= e.handoffMin {
			e.handoffs++
			e.publish(false)
			e.runPartition(0)
			e.coord.await(func() bool { return e.pending.Load() == 0 })
			return
		}
	}
	for pi := range e.parts {
		e.runPartition(pi)
	}
}

// roundWork estimates the component ticks the current round will run: for
// every shard taking part, the components about to tick (active plus
// queued wakes) times the cycles of its block. Read between dispatches,
// when no partition runs.
func (e *Engine) roundWork() uint64 {
	m := e.roundClock
	var w uint64
	if e.clocks == nil {
		for _, sh := range e.shards {
			w += sh.tickLoad()
		}
		return w * (e.roundEnd - m)
	}
	for _, sh := range e.shards {
		if e.clocks[sh.id] == m {
			w += sh.tickLoad() * (e.blockEnd(sh) - m)
		}
	}
	return w
}

// blockEnd is the cycle at which shard sh's block ends in the current
// round of a window of several rounds: its window past the round's clock,
// clipped to the window end.
func (e *Engine) blockEnd(sh *shard) uint64 {
	return min(e.roundClock+e.shardWins[sh.id], e.roundEnd)
}

// tickLoad is the number of components the shard's next tick phase runs,
// not counting timer wake-ups.
func (sh *shard) tickLoad() uint64 {
	return uint64(len(sh.active) + len(sh.wokenList))
}

// Handoffs reports how many dispatches Run handed to its workers, and
// how many it made while workers ran: handed over dispatched is the share
// of dispatches heavy enough to run partitions concurrently; the rest ran
// inline on the caller. Both are 0 unless workers started (more than one
// partition and more than one CPU). A
// wall-time diagnostic like Epochs: never part of the simulated history,
// never checkpointed.
func (e *Engine) Handoffs() (handed, dispatched uint64) { return e.handoffs, e.dispatched }

// publish hands the current round, or the order to stop, to every worker:
// everything the coordinator wrote before the generation bump is visible
// to a worker that observes it.
func (e *Engine) publish(stop bool) {
	e.stop = stop
	e.pending.Store(int32(len(e.workers)))
	e.gen.Add(1)
	for _, w := range e.workers {
		w.signal()
	}
}

// workerLoop executes partition pi's share of every round published after
// generation seen, until told to stop. Its writes happen before its
// pending decrement, which the coordinator observes before touching
// partition state again.
func (e *Engine) workerLoop(pi int, w *parker, seen uint64) {
	defer e.wg.Done()
	for {
		w.await(func() bool { return e.gen.Load() != seen })
		seen++
		if e.stop {
			return
		}
		e.runPartition(pi)
		if e.pending.Add(-1) == 0 {
			e.coord.signal()
		}
	}
}

// startWorkers launches one goroutine for each partition past the first
// (the caller of dispatch runs partition 0). They are stopped by
// stopWorkers when Run returns, so an engine that is built, run, and
// dropped (the experiment harnesses build dozens) leaks nothing.
func (e *Engine) startWorkers() {
	if e.workers != nil {
		return
	}
	e.ensureParts()
	if len(e.parts) < 2 {
		return
	}
	if e.coord.wake == nil {
		e.coord.wake = make(chan struct{}, 1)
	}
	seen := e.gen.Load()
	e.workers = make([]*parker, len(e.parts)-1)
	for i := range e.workers {
		w := &parker{wake: make(chan struct{}, 1)}
		e.workers[i] = w
		e.wg.Add(1)
		go e.workerLoop(i+1, w, seen)
	}
}

// stopWorkers tells the workers to exit and returns once they have.
func (e *Engine) stopWorkers() {
	if e.workers == nil {
		return
	}
	e.publish(true)
	e.wg.Wait()
	e.workers = nil
}

// spinFor bounds how long a waiter polls before it parks. It covers a
// 256-core chip's round (tens of microseconds), so a waiter whose peer is
// running does not pay a park and an OS-thread wake-up per dispatch.
const spinFor = 80 * time.Microsecond

// parker is one side of the dispatch barrier: a goroutine waiting for a
// condition another goroutine makes true. It polls, yielding its P between
// polls, while its last wait ended within spinFor; otherwise, or once the
// poll runs out, it parks on wake. A wait longer than spinFor means the
// peer was descheduled (another engine or process held its CPU) or its
// round was long enough that a wake-up is cheap beside it, so the next
// wait parks at once instead of keeping a CPU busy. The parked flag
// closes the lost-wakeup window: the waiter announces itself before its
// last check, and a signaller that observes the announcement claims it
// and sends exactly one token, which the same wait consumes.
type parker struct {
	parked atomic.Bool
	wake   chan struct{} // capacity 1: a signal never blocks
	spin   bool          // the last wait ended within spinFor
}

// await returns once ready reports true. ready must become true only
// through writes followed by signal.
func (w *parker) await(ready func() bool) {
	if ready() {
		return
	}
	start := time.Now()
	for w.spin && !ready() && time.Since(start) <= spinFor {
		runtime.Gosched()
	}
	for !ready() {
		w.parked.Store(true)
		if ready() && w.parked.CompareAndSwap(true, false) {
			break
		}
		// Either nothing is ready yet or a signaller already claimed the
		// announcement; both end in exactly one token. A token can also
		// come from a signaller that saw this waiter parked for an
		// earlier condition, hence the loop.
		<-w.wake
	}
	w.spin = time.Since(start) <= spinFor
}

// signal wakes the waiter if it has parked.
func (w *parker) signal() {
	if w.parked.Load() && w.parked.CompareAndSwap(true, false) {
		w.wake <- struct{}{}
	}
}

// Settle pads per-cycle statistics of components that are currently asleep
// (see CatchUpper). Call before reading metrics mid-run or after Run; it
// must not run concurrently with Step.
func (e *Engine) Settle() {
	for _, cs := range e.comps {
		if cu, ok := cs.t.(CatchUpper); ok {
			cu.CatchUp(e.now)
		}
	}
}

// Err returns the error from the first recovered component panic, or nil.
// The report names the cycle the component was executing, which inside a
// multi-cycle window can precede Now. When several
// partitions panicked, the earliest cycle wins, then the lowest partition
// index, so the report is deterministic. The no-error fast path is a
// single atomic load (Run polls every window).
func (e *Engine) Err() error {
	if e.errCount.Load() == 0 {
		return nil
	}
	e.errMu.Lock()
	defer e.errMu.Unlock()
	if len(e.errs) == 0 {
		return nil
	}
	sort.Slice(e.errs, func(i, j int) bool {
		a, b := e.errs[i], e.errs[j]
		if a.cycle != b.cycle {
			return a.cycle < b.cycle
		}
		return a.partition < b.partition
	})
	pe := e.errs[0]
	name := fmt.Sprintf("%T", pe.component)
	if s, ok := pe.component.(fmt.Stringer); ok {
		name = fmt.Sprintf("%s (%T)", s.String(), pe.component)
	}
	return fmt.Errorf("sim: component %s panicked at cycle %d: %v", name, pe.cycle, pe.value)
}

// progressSum totals the registered components' work counters.
func (e *Engine) progressSum() uint64 {
	var sum uint64
	for _, r := range e.reporters {
		sum += r.Progress()
	}
	return sum
}

// maxWatchdogReports bounds the component list in a watchdog error.
const maxWatchdogReports = 8

// stalledReport collects the non-empty Health strings of registered
// components, in registration order.
func (e *Engine) stalledReport() string {
	var parts []string
	extra := 0
	for _, cs := range e.comps {
		hr, ok := cs.t.(HealthReporter)
		if !ok {
			continue
		}
		h := hr.Health()
		if h == "" {
			continue
		}
		if len(parts) >= maxWatchdogReports {
			extra++
			continue
		}
		name := fmt.Sprintf("%T", cs.t)
		if s, ok := cs.t.(fmt.Stringer); ok {
			name = s.String()
		}
		parts = append(parts, name+": "+h)
	}
	if extra > 0 {
		parts = append(parts, fmt.Sprintf("(+%d more)", extra))
	}
	return strings.Join(parts, "; ")
}

// checkWatchdog evaluates the zero-progress watchdog; a non-nil return is
// the diagnostic error Run should stop with. Stuckness is accounted in
// simulated cycles (the first stuck observation records its cycle; the
// watchdog fires one full interval later), so multi-cycle windows neither
// advance nor delay the firing cycle: Run evaluates the check on the same
// cycle grid for every lookahead setting.
func (e *Engine) checkWatchdog() error {
	if e.watchEvery == 0 || e.now-e.lastCheck < e.watchEvery {
		return nil
	}
	e.lastCheck = e.now
	sum := e.progressSum()
	if sum != e.lastSum {
		e.lastSum = sum
		e.stuckSince = 0
		return nil
	}
	// No progress over a full interval. Only a wedge if some component
	// still holds work — an all-quiescent chip is legitimately idle
	// (e.g. waiting on future task release cycles).
	report := e.stalledReport()
	if report == "" {
		e.stuckSince = 0
		return nil
	}
	if e.stuckSince == 0 {
		e.stuckSince = e.now
		return nil
	}
	if e.now-e.stuckSince < e.watchEvery {
		return nil
	}
	// Settle so any metrics read off the wedged simulation (health dumps,
	// post-mortem snapshots) describe the cycle the diagnostic names.
	e.Settle()
	return fmt.Errorf("sim: watchdog: %w for %d cycles at cycle %d; stalled: %s",
		ErrStalled, e.now-e.stuckSince+e.watchEvery, e.now, report)
}

// Run advances until done returns true or the cycle budget is exhausted. It
// returns the cycle count at stop and an error when the budget ran out, a
// component panicked, or the progress watchdog detected a wedged
// simulation. With more than one partition and more than one CPU, Run
// starts the persistent workers for its duration and stops them before it
// returns; otherwise every partition runs on the caller.
func (e *Engine) Run(maxCycles uint64, done func() bool) (uint64, error) {
	e.ensureParts()
	e.syncCross()
	if len(e.parts) > 1 && runtime.GOMAXPROCS(0) > 1 {
		e.startWorkers()
		defer e.stopWorkers()
	}
	// The done condition and the watchdog are evaluated only on an absolute
	// cycle grid whose pitch is the done grid — a pure function of the
	// wiring, NOT of any SetLookahead override — so every partition count
	// observes completion (and wedges) on the identical cycle. A window is
	// the widest effective shard window, clipped to realign with the grid
	// after a mid-grid entry (e.g. a budget-sliced timeline run) and to
	// respect the remaining budget, so no grid cycle is ever skipped and
	// budget stops land exactly.
	grid := e.doneGrid()
	_, maxWin := e.shardWindows(grid)
	start := e.now
	for {
		if e.now%grid == 0 && done != nil && done() {
			return e.now, nil
		}
		left := maxCycles - (e.now - start)
		if left == 0 {
			break
		}
		e.advance(min(maxWin, grid-e.now%grid, left))
		if err := e.Err(); err != nil {
			return e.now, err
		}
		if e.now%grid == 0 {
			if err := e.checkWatchdog(); err != nil {
				return e.now, err
			}
		}
	}
	if done != nil && done() {
		return e.now, nil
	}
	return e.now, fmt.Errorf("sim: %w: budget of %d at cycle %d", ErrBudget, maxCycles, e.now)
}

// timerEntry schedules the wake-up of comps[idx] at cycle at.
type timerEntry struct {
	at  uint64
	idx int32
}

// timerHeap is a binary min-heap ordered by (at, idx); the idx tie-break
// keeps wake order deterministic.
type timerHeap []timerEntry

func timerLess(a, b timerEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.idx < b.idx
}

func (h *timerHeap) push(e timerEntry) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !timerLess((*h)[i], (*h)[parent]) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

// pop removes and returns the index of the earliest entry.
func (h *timerHeap) pop() int32 {
	old := *h
	idx := old[0].idx
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && timerLess(old[l], old[smallest]) {
			smallest = l
		}
		if r < n && timerLess(old[r], old[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		old[i], old[smallest] = old[smallest], old[i]
		i = smallest
	}
	return idx
}
