// Package chip assembles the full SmarCo processor (Fig. 4): 16 sub-rings
// of 16 TCG cores each, hub routers hosting the per-sub-ring MACT and
// sub-scheduler, a main ring with four DDR controllers at equal spacing and
// a host interface, direct datapaths from every sub-ring to the memory
// system, and the main scheduler.
package chip

import (
	"fmt"

	"smarco/internal/cpu"
	"smarco/internal/dram"
	"smarco/internal/fault"
	"smarco/internal/isa"
	"smarco/internal/kernels"
	"smarco/internal/mact"
	"smarco/internal/mem"
	"smarco/internal/noc"
	"smarco/internal/sampling"
	"smarco/internal/sched"
	"smarco/internal/sim"
)

// Config sizes a chip.
type Config struct {
	SubRings    int
	CoresPerSub int
	Core        cpu.Config
	SubLink     noc.LinkConfig
	MainLink    noc.LinkConfig
	MACT        mact.Config
	DRAM        dram.Config
	MCs         int
	Sched       sched.Config
	// DirectPath enables the star-shaped direct datapaths (§3.5.2).
	DirectPath bool
	// DirectDelay / DirectBytes configure each direct link.
	DirectDelay uint64
	DirectBytes int
	// Topology selects the interconnect: "" or "ring" builds the paper's
	// hierarchical rings (with hubs, MACT, direct datapaths); "mesh"
	// builds the 2D-mesh baseline of §3.2 (XY routing, no MACT).
	Topology string
	// MeshLink configures the mesh baseline's links.
	MeshLink noc.MeshLinkConfig
	// Partitions is the engine's one concurrency setting: the run executes
	// on at most this many partitions, never more than the shard count,
	// and 0 means one per available CPU. 1 starts no worker goroutines.
	// Negative values are rejected by Build. Purely a wall-time setting:
	// results are identical for every value (DESIGN.md §10).
	Partitions int
	// LinkLatency is the minimum cycle delay of every cross-shard boundary
	// link (main-ring injects and ejects, direct-link endpoints, scheduler
	// task and credit channels). 0 selects the historical 1-cycle latency.
	// Larger values model deeper interconnect pipelines and, as a direct
	// consequence, widen the engine's conservative lookahead window: the
	// engine may run epochs of up to the smallest cross-shard latency
	// without synchronizing (DESIGN.md §12). Only the ring topology has
	// cross-shard links; the mesh baseline is one shard and ignores this.
	LinkLatency uint64
	// Per-class cross-link latencies (DESIGN.md §14). Each overrides
	// LinkLatency for one class of cross-shard boundary ports; 0 keeps the
	// class at the uniform LinkLatency, so the zero values reproduce the
	// classic homogeneous machine. The classes map onto ports as:
	//
	//	DRAMLatency:     main-ring ejects at MC stops and both direct-
	//	                 datapath endpoints — every link into (and out of)
	//	                 the memory shards;
	//	MainRingLatency: main-ring injects (hub/MC/host -> ring router);
	//	SubRingLatency:  main-ring ejects at hub stops and the
	//	                 sub-scheduler task inboxes — links delivering down
	//	                 into a sub-ring shard;
	//	CreditLatency:   credit returns into the main scheduler.
	//
	// Distinct values make the engine's safe window per-shard: a memory
	// shard fed only by latency-8 links runs 8-cycle blocks while the
	// scheduler shard steps cycle by cycle (DESIGN.md §14). As with
	// LinkLatency, these define the simulated machine — results are
	// bit-identical across partition counts and lookahead caps on the same
	// latency profile, but differ between profiles.
	DRAMLatency     uint64
	MainRingLatency uint64
	SubRingLatency  uint64
	CreditLatency   uint64
	// Lookahead caps every shard's window in cycles. 0 means "auto": use
	// the full conservative window derived from the link latencies. Values
	// above a shard's window leave it unchanged; results are bit-identical
	// for every setting on the same machine.
	Lookahead uint64
	// ClockHz converts cycles to seconds for cross-machine comparisons
	// (SmarCo runs at 1.5 GHz).
	ClockHz float64
	// Fault configures deterministic fault injection (link faults, DRAM
	// bit flips, hard core failures). The zero value disables it.
	Fault fault.Config
	// WatchdogCycles is the engine's zero-progress observation interval;
	// 0 selects sim.DefaultWatchdogCycles.
	WatchdogCycles uint64
	// Sampling enables sampled simulation (DESIGN.md §13): Run alternates
	// detailed sample windows with functional fast-forward spans and
	// returns a SMARTS-style extrapolated cycle count. The zero value runs
	// everything at full detail.
	Sampling sampling.Config
}

// DefaultConfig is the paper's 256-core chip.
func DefaultConfig() Config {
	return Config{
		SubRings:    16,
		CoresPerSub: 16,
		Core:        cpu.DefaultConfig(),
		SubLink:     noc.DefaultSubRing(),
		MainLink:    noc.DefaultMainRing(),
		MACT:        mact.Default(),
		DRAM:        dram.DDR4(),
		MCs:         4,
		Sched:       sched.DefaultHW(),
		DirectPath:  true,
		DirectDelay: 4,
		DirectBytes: 8,
		MeshLink:    noc.DefaultMeshLink(),
		ClockHz:     1.5e9,
	}
}

// SmallConfig is a 4×4 (16-core) chip for tests and examples. It runs on
// one partition: a chip this small has too little work per cycle to hand
// any of it to a worker (DESIGN.md §10).
func SmallConfig() Config {
	cfg := DefaultConfig()
	cfg.SubRings = 4
	cfg.CoresPerSub = 4
	cfg.MCs = 2
	cfg.Partitions = 1
	return cfg
}

// Cores returns the total core count.
func (c Config) Cores() int { return c.SubRings * c.CoresPerSub }

// EffectiveParallel reports whether the run may use more than one
// partition.
func (c Config) EffectiveParallel() bool { return c.Partitions != 1 }

// Threads returns the total hardware thread count.
func (c Config) Threads() int {
	return c.Cores() * c.Core.Lanes * c.Core.ThreadsPerLane
}

// codeRegion is where program segments are placed in the DRAM map.
const codeRegion uint64 = 0x4000_0000
const codeStride uint64 = 1 << 20

// Chip is a fully wired SmarCo instance.
type Chip struct {
	Config Config

	eng   *sim.Engine
	store *mem.Sparse

	Cores []*cpu.Core
	Subs  []*sched.SubScheduler
	Main  *sched.MainScheduler
	MCs   []*dram.Controller
	Hubs  []*hub

	MainRing *noc.Ring
	SubRings []*noc.Ring
	Mesh     *noc.Mesh // non-nil when Topology == "mesh"
	directs  []*noc.DirectLink

	codeBases map[*isa.Program]uint64
	nextCode  uint64
	submitted int
	inj       *fault.Injector // nil when fault injection is disabled

	// Sampled-run state (sampling.go): tasks held back for the sampled
	// schedule and the run controller (nil until RunSampled starts).
	held []kernels.Task
	samp *sampState

	hostInject *sim.Port[*noc.Packet]
	hostEject  *sim.Port[*noc.Packet]
	hostSeq    uint64

	// Observability (see observe.go); nil unless enabled.
	trace *sim.Trace
	prof  *sim.Profile
}

// Build constructs a chip over the given backing store (typically a
// workload's memory image), validating the configuration — including the
// fault model — instead of panicking.
func Build(cfg Config, store *mem.Sparse) (*Chip, error) {
	if store == nil {
		store = mem.NewSparse()
	}
	cfg.Core.MemCores = cfg.Cores()
	c := &Chip{
		Config:    cfg,
		eng:       sim.NewEngine(),
		store:     store,
		codeBases: map[*isa.Program]uint64{},
		nextCode:  codeRegion,
	}
	// Validate even when no fault class is enabled, so a negative rate is
	// rejected rather than silently treated as "off".
	if err := cfg.Fault.Validate(); err != nil {
		return nil, fmt.Errorf("chip: %w", err)
	}
	if err := cfg.Sampling.Validate(); err != nil {
		return nil, fmt.Errorf("chip: %w", err)
	}
	if cfg.Sampling.Enabled() && cfg.Fault.Enabled() {
		// The functional model cannot reproduce injected faults (bit flips,
		// kills, migrations), so fast-forwarded state would diverge from the
		// detailed machine's.
		return nil, fmt.Errorf("chip: sampling and fault injection are mutually exclusive")
	}
	if cfg.Fault.Enabled() {
		inj, err := fault.NewInjector(cfg.Fault)
		if err != nil {
			return nil, fmt.Errorf("chip: %w", err)
		}
		c.inj = inj
	}
	if cfg.Partitions < 0 {
		return nil, fmt.Errorf("chip: partitions %d is negative (want 0 for one per CPU, or at least 1)", cfg.Partitions)
	}
	c.eng.SetMaxPartitions(cfg.Partitions)
	wd := cfg.WatchdogCycles
	if wd == 0 {
		wd = sim.DefaultWatchdogCycles
	}
	c.eng.SetWatchdog(wd)
	c.eng.SetLookahead(cfg.Lookahead)
	var err error
	if cfg.Topology == "mesh" {
		err = c.buildMesh()
	} else {
		err = c.build()
	}
	if err != nil {
		return nil, err
	}
	c.armFaults()
	return c, nil
}

// New is Build for statically known-good configurations.
func New(cfg Config, store *mem.Sparse) *Chip {
	c, err := Build(cfg, store)
	if err != nil {
		panic(err)
	}
	return c
}

// FaultStats exposes the RAS counters (nil without fault injection).
func (c *Chip) FaultStats() *fault.Stats {
	if c.inj == nil {
		return nil
	}
	return &c.inj.Stats
}

// armFaults installs the fault injector across the built chip: NoC routers
// (link faults), memory controllers (ECC + undo-log stamping), schedulers
// (migration counters), and — when core kills are configured — the cores'
// RAS machinery plus the scheduled kill set.
func (c *Chip) armFaults() {
	inj := c.inj
	if inj == nil {
		return
	}
	if c.Mesh != nil {
		c.Mesh.SetFaultInjector(inj)
	}
	if c.MainRing != nil {
		c.MainRing.SetFaultInjector(inj)
	}
	for _, r := range c.SubRings {
		r.SetFaultInjector(inj)
	}
	for _, mc := range c.MCs {
		mc.SetFaultInjector(inj)
	}
	for _, s := range c.Subs {
		s.SetFaultInjector(inj)
	}
	if !inj.RASEnabled() {
		return
	}
	for _, core := range c.Cores {
		core.EnableRAS(inj)
	}
	cycle := inj.KillCycle()
	per := len(c.Cores) / len(c.Subs)
	for _, id := range inj.KillSet(len(c.Cores)) {
		c.Subs[id/per].ScheduleKill(cycle, id%per)
	}
}

// mcFor maps a DRAM address to its controller, page-interleaved.
func (c *Chip) mcFor(addr uint64) noc.NodeID {
	return noc.MCNode(int((addr >> 12) % uint64(c.Config.MCs)))
}

// build wires every component.
func (c *Chip) build() error {
	cfg := c.Config
	lat := cfg.LinkLatency
	if lat == 0 {
		lat = 1
	}
	// Per-class latencies default to the uniform link latency; see the
	// Config field docs for the class -> port mapping.
	classLat := func(v uint64) uint64 {
		if v == 0 {
			return lat
		}
		return v
	}
	dramLat := classLat(cfg.DRAMLatency)
	mainLat := classLat(cfg.MainRingLatency)
	subLat := classLat(cfg.SubRingLatency)
	credLat := classLat(cfg.CreditLatency)

	// Main ring layout: hubs with MCs inserted at equal spacing, host last.
	type stop struct{ node noc.NodeID }
	var layout []stop
	hubsPerMC := (cfg.SubRings + cfg.MCs - 1) / cfg.MCs
	mcNext := 0
	for s := 0; s < cfg.SubRings; s++ {
		layout = append(layout, stop{noc.HubNode(s)})
		if (s+1)%hubsPerMC == 0 && mcNext < cfg.MCs {
			layout = append(layout, stop{noc.MCNode(mcNext)})
			mcNext++
		}
	}
	for mcNext < cfg.MCs {
		layout = append(layout, stop{noc.MCNode(mcNext)})
		mcNext++
	}
	layout = append(layout, stop{noc.HostNode()})

	mainRing, err := noc.NewRing("main", len(layout), cfg.MainLink, 1_000_000)
	if err != nil {
		return err
	}
	c.MainRing = mainRing
	c.MainRing.SetResolver(func(dst noc.NodeID) noc.NodeID {
		if dst.IsCore() {
			return noc.HubNode(dst.CoreIndex() / cfg.CoresPerSub)
		}
		return dst
	})

	mainPorts := map[noc.NodeID][2]*sim.Port[*noc.Packet]{}
	for i, st := range layout {
		inj, ej := c.MainRing.Attach(i, st.node)
		// Every main-ring boundary port crosses a shard: injects are owned
		// by the ring, ejects by the attached hub/MC — so ejects carry the
		// consumer shard's class (DRAM at MC stops, sub-ring at hub stops).
		// The host eject is the exception — it is a host-domain sink
		// drained between runs, with no on-chip consumer whose timing could
		// matter.
		inj.SetMinLatency(mainLat)
		switch {
		case st.node.IsMC():
			ej.SetMinLatency(dramLat)
		case st.node != noc.HostNode():
			ej.SetMinLatency(subLat)
		}
		mainPorts[st.node] = [2]*sim.Port[*noc.Packet]{inj, ej}
	}
	hp := mainPorts[noc.HostNode()]
	c.hostInject, c.hostEject = hp[0], hp[1]

	// Memory controllers.
	for m := 0; m < cfg.MCs; m++ {
		ports := mainPorts[noc.MCNode(m)]
		ctl := dram.New(noc.MCNode(m), cfg.DRAM, c.store, ports[0], ports[1], uint64(900_000+m))
		c.MCs = append(c.MCs, ctl)
	}

	// Sub-rings, cores, hubs, sub-schedulers.
	var directLinks []*noc.DirectLink
	for s := 0; s < cfg.SubRings; s++ {
		ring, err := noc.NewRing(fmt.Sprintf("sub%d", s), cfg.CoresPerSub+1, cfg.SubLink, uint64(10_000*(s+1)))
		if err != nil {
			return err
		}
		c.SubRings = append(c.SubRings, ring)
		lo, hi := s*cfg.CoresPerSub, (s+1)*cfg.CoresPerSub
		ring.SetResolver(func(dst noc.NodeID) noc.NodeID {
			if dst.IsCore() && dst.CoreIndex() >= lo && dst.CoreIndex() < hi {
				return dst
			}
			return noc.HubNode(s)
		})

		done := sim.NewPort[cpu.Completion](0)
		var subCores []*cpu.Core
		for k := 0; k < cfg.CoresPerSub; k++ {
			id := lo + k
			inj, ej := ring.Attach(k, noc.CoreNode(id))
			core, err := cpu.New(id, cfg.Core, c.store, inj, ej, done, c.mcFor, uint64(100_000+id))
			if err != nil {
				return err
			}
			c.Cores = append(c.Cores, core)
			subCores = append(subCores, core)
		}
		hubInj, hubEj := ring.Attach(cfg.CoresPerSub, noc.HubNode(s))
		mp := mainPorts[noc.HubNode(s)]

		var direct *noc.DirectLink
		if cfg.DirectPath {
			direct = noc.NewDirectLink(uint64(800_000+s), cfg.DirectDelay, cfg.DirectBytes)
			directLinks = append(directLinks, direct)
		}
		h := newHub(s, cfg, hubInj, hubEj, mp[0], mp[1], direct, c.mcFor, uint64(700_000+s))
		c.Hubs = append(c.Hubs, h)

		sub := sched.NewSub(s, cfg.Sched, subCores, done, uint64(600_000+s))
		c.Subs = append(c.Subs, sub)
	}

	// Each direct datapath terminates at one controller (sub-ring s wires
	// to MC s mod MCs); controllers fan in several links and respond on
	// the link a request arrived on.
	for i, dl := range directLinks {
		send, recv := dl.EndB()
		c.MCs[i%len(c.MCs)].AttachDirect(send, recv)
	}
	c.directs = directLinks

	c.Main = sched.NewMain(c.Subs, 500_000)

	// Engine registration in load-balancing shards: one per sub-ring, one
	// per memory controller (the controller plus the direct links that
	// terminate on it), one for the main-ring routers, and one for the main
	// scheduler. Splitting the former monolithic uncore lets the engine
	// spread DRAM and main-ring work across partitions instead of pinning
	// it all behind one goroutine. Every port is registered against the
	// component that drains it, so a delivery re-arms a quiesced owner and
	// commit work runs on the owner's shard (see sim.Engine.AddPortFor).
	for s := 0; s < cfg.SubRings; s++ {
		var parts []sim.Ticker
		for _, rt := range c.SubRings[s].Routers() {
			parts = append(parts, rt)
		}
		lo := s * cfg.CoresPerSub
		for k := 0; k < cfg.CoresPerSub; k++ {
			parts = append(parts, c.Cores[lo+k])
		}
		parts = append(parts, c.Hubs[s], c.Subs[s])
		c.eng.AddShard(fmt.Sprintf("sub%d", s), parts...)
		for k, rt := range c.SubRings[s].Routers() {
			c.eng.AddPortFor(rt, rt.InPorts()...)
			// Stop k's eject feeds core lo+k; the last stop feeds the hub.
			if k < cfg.CoresPerSub {
				c.eng.AddPortFor(c.Cores[lo+k], rt.EjectPort())
			} else {
				c.eng.AddPortFor(c.Hubs[s], rt.EjectPort())
			}
		}
		for k := 0; k < cfg.CoresPerSub; k++ {
			c.eng.AddPortFor(c.Cores[lo+k], c.Cores[lo+k].Ports()...)
		}
		c.eng.AddPortFor(c.Subs[s], c.Subs[s].LocalPorts()...)
		// The task-in port is fed by the main scheduler from its own shard;
		// descriptors ride the rings down to the hub, so the inbox carries
		// the sub-ring class.
		in := c.Subs[s].InPort()
		in.SetMinLatency(subLat)
		c.eng.AddCrossPortFor(c.Subs[s], in)
	}
	for m, mc := range c.MCs {
		parts := []sim.Ticker{mc}
		for i, dl := range directLinks {
			if i%len(c.MCs) == m {
				parts = append(parts, dl)
			}
		}
		c.eng.AddShard(fmt.Sprintf("mc%d", m), parts...)
	}
	var mainRouters []sim.Ticker
	for _, rt := range c.MainRing.Routers() {
		mainRouters = append(mainRouters, rt)
	}
	c.eng.AddShard("mainring", mainRouters...)
	c.eng.AddShard("sched", c.Main)
	for i, st := range layout {
		rt := c.MainRing.Router(i)
		// Ring-direction queues are fed by neighbouring routers of the same
		// shard; the local inject is fed by the attached hub/MC/host from
		// another shard (or the host domain) and is a cross-shard input.
		c.eng.AddPortFor(rt, rt.RingInPorts()...)
		c.eng.AddCrossPortFor(rt, rt.InjectPort())
		ej := rt.EjectPort()
		switch {
		case st.node.IsHub():
			c.eng.AddCrossPortFor(c.Hubs[st.node.HubIndex()], ej)
		case st.node.IsMC():
			c.eng.AddCrossPortFor(c.MCs[st.node.MCIndex()], ej)
		default:
			// The host eject is drained by harness code between runs, not
			// by a registered component: a sink, committed at barriers.
			c.eng.AddSinkPort(ej)
		}
	}
	for i, dl := range directLinks {
		sendA, recvA := dl.EndA()
		sendB, recvB := dl.EndB()
		// A-side ports cross between the hub's sub-ring shard and the
		// link's memory shard; B-side ports are local to the memory shard.
		// Both A-side directions are memory-datapath links (DRAM class).
		sendA.SetMinLatency(dramLat)
		recvA.SetMinLatency(dramLat)
		c.eng.AddCrossPortFor(dl, sendA)
		c.eng.AddPortFor(dl, sendB)
		c.eng.AddCrossPortFor(c.Hubs[i], recvA)
		c.eng.AddPortFor(c.MCs[i%len(c.MCs)], recvB)
	}
	// Credit returns are sent by the sub-schedulers from their shards.
	for _, p := range c.Main.CreditPorts() {
		p.SetMinLatency(credLat)
		c.eng.AddCrossPortFor(c.Main, p)
	}
	return nil
}

// codeBase assigns (or returns) the code-segment address for a program.
func (c *Chip) codeBase(p *isa.Program) uint64 {
	if base, ok := c.codeBases[p]; ok {
		return base
	}
	base := c.nextCode
	c.nextCode += codeStride
	c.codeBases[p] = base
	return base
}

// Submit queues workload tasks on the main scheduler. With sampling
// enabled the tasks are held back instead and dispatched batch by batch by
// the sampled schedule (code segments are still assigned here, in
// submission order, so checkpoint Work references resolve identically).
func (c *Chip) Submit(tasks []kernels.Task) {
	if c.Config.Sampling.Enabled() {
		for i := range tasks {
			c.codeBase(tasks[i].Prog)
		}
		c.held = append(c.held, tasks...)
		return
	}
	c.submitNow(tasks)
}

// submitNow converts tasks to scheduler work and queues them immediately.
func (c *Chip) submitNow(tasks []kernels.Task) {
	works := make([]cpu.Work, 0, len(tasks))
	for _, t := range tasks {
		w := cpu.Work{
			TaskID:       t.ID,
			Prog:         t.Prog,
			Args:         t.Args,
			Priority:     t.Priority == kernels.PriorityRealTime,
			Deadline:     t.Deadline,
			ReleaseCycle: t.ReleaseCycle,
			EstCycles:    t.EstCycles,
			CodeBase:     c.codeBase(t.Prog),
		}
		for _, r := range t.Stage {
			w.Stage = append(w.Stage, cpu.StageRegion{Arg: r.Arg, Bytes: r.Bytes, Out: r.Out})
		}
		works = append(works, w)
	}
	c.submitted += len(tasks)
	c.Main.Submit(works...)
}

// Now returns the current cycle.
func (c *Chip) Now() uint64 { return c.eng.Now() }

// Lookahead returns the engine's effective epoch window in cycles: the
// conservative window licensed by the cross-shard link latencies, clamped
// by Config.Lookahead (1 on the mesh topology, which has no cross links).
func (c *Chip) Lookahead() uint64 { return c.eng.Lookahead() }

// Epochs counts engine synchronization rounds so far (see Snapshot.Epochs).
func (c *Chip) Epochs() uint64 { return c.eng.Epochs() }

// Handoffs reports how many engine dispatches went to the workers and how
// many the engine made while they ran (see
// sim.Engine.Handoffs). A wall-time diagnostic, not in snapshots.
func (c *Chip) Handoffs() (handed, dispatched uint64) { return c.eng.Handoffs() }

// WindowReport returns the engine's per-shard lookahead-window report:
// each shard's safe fused-block window under the configured latencies and
// Lookahead cap, plus the fused blocks executed so far (DESIGN.md §14).
func (c *Chip) WindowReport() []sim.ShardWindow { return c.eng.WindowReport() }

// Step advances one cycle (exposed for fine-grained harnesses).
func (c *Chip) Step() { c.eng.Step() }

// CompletedTasks counts results across all sub-schedulers.
func (c *Chip) CompletedTasks() int {
	n := 0
	for _, s := range c.Subs {
		n += len(s.Results)
	}
	return n
}

// Results gathers completion records from every sub-ring.
func (c *Chip) Results() []sched.Result {
	var out []sched.Result
	for _, s := range c.Subs {
		out = append(out, s.Results...)
	}
	return out
}

// Run executes until every submitted task completes, or maxCycles elapse.
// With sampling enabled it runs the sampled schedule instead and returns
// the extrapolated cycle count (see RunSampled).
func (c *Chip) Run(maxCycles uint64) (uint64, error) {
	if c.Config.Sampling.Enabled() {
		return c.RunSampled(maxCycles)
	}
	return c.eng.Run(maxCycles, func() bool {
		return c.CompletedTasks() >= c.submitted
	})
}

// HostSend injects a packet from the host/PCIe interface onto the main
// ring (used for offload commands such as near-memory match requests).
func (c *Chip) HostSend(p *noc.Packet) {
	c.hostSeq++
	// On the ring topology the host inject is a cross-shard port, so the
	// send must carry the current cycle; on the mesh it is an ordinary
	// intra-shard port, where SendFrom is equivalent to Send.
	c.hostInject.SendFrom(999_999, c.hostSeq, c.eng.Now(), p)
}

// HostReceive drains packets addressed to the host.
func (c *Chip) HostReceive() []*noc.Packet {
	return c.hostEject.DrainInto(nil, 0)
}

// RunUntil steps the chip until cond holds or the budget expires.
func (c *Chip) RunUntil(maxCycles uint64, cond func() bool) (uint64, error) {
	return c.eng.Run(maxCycles, cond)
}

// Seconds converts cycles to wall-clock seconds at the chip's clock.
func (c *Chip) Seconds(cycles uint64) float64 {
	return float64(cycles) / c.Config.ClockHz
}
