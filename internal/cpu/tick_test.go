package cpu

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"smarco/internal/isa"
	"smarco/internal/snapshot"
)

// pinProg is the pinned-state workload: every iteration reads a staged SPM
// word (a short exec stall), loads a DRAM word (a round trip the friend
// thread covers), multiplies and divides (3- and 12-cycle exec stalls), and
// writes a staged output word that drains back to DRAM after HALT.
// a0 staged input, a1 staged output, a2 DRAM array, a3 trip count, a4 divisor.
var pinProg = isa.MustAssemble("pin", `
	li   t0, 0
loop:
	slli t1, t0, 3
	add  t2, t1, a0
	ld   t3, 0(t2)
	add  t4, t1, a2
	ld   t5, 0(t4)
	mul  t6, t3, t5
	div  t6, t6, a4
	add  t2, t1, a1
	sd   t6, 0(t2)
	addi t0, t0, 1
	blt  t0, a3, loop
	halt
`)

// oneProg resolves the single program of a test rig to a fixed key.
type oneProg struct{ p *isa.Program }

func (r oneProg) ProgKey(p *isa.Program) (uint64, bool) { return codeBase, p == r.p }

func (r oneProg) ProgByKey(key uint64) *isa.Program {
	if key == codeBase {
		return r.p
	}
	return nil
}

// pinRig builds a one-core rig of two lanes at the given in-pair depth and
// queues twice as many staged tasks as it has slots, with trip counts that
// differ so that later tasks stage while earlier ones drain.
func pinRig(t testing.TB, threadsPerLane int) *rig {
	cfg := testCfg()
	cfg.Lanes = 2
	cfg.ThreadsPerLane = threadsPerLane
	r := newRig(t, 1, cfg)
	for i := 0; i < 2*cfg.Lanes*threadsPerLane; i++ {
		n := 3 + (5*i)%7
		in, out, arr := 0x20000+i*0x400, 0x30000+i*0x400, 0x10000+i*0x400
		for j := 0; j < n; j++ {
			r.store.WriteUint64(uint64(in+8*j), uint64(7*i+j+1))
			r.store.WriteUint64(uint64(arr+8*j), uint64(3*j+i+2))
		}
		assign(r, 0, Work{TaskID: i + 1, Prog: pinProg, CodeBase: codeBase,
			Args:  [8]int64{int64(in), int64(out), int64(arr), int64(n), 3},
			Stage: []StageRegion{{Arg: 0, Bytes: 8 * n}, {Arg: 1, Bytes: 8 * n, Out: true}}})
	}
	return r
}

// laneStall is the exec-latency stall lane l holds, in cycles.
func laneStall(c *Core, l int) int { return c.lanes[l].stall }

// pinPoint is one checkpoint of the pinned-state test: the cycle it stops
// at, the SaveState length and SHA-256 digest recorded at the commit before
// the core's ready mask and lane-held stalls, and the lane counters there.
type pinPoint struct {
	kind                            string
	cycle                           uint64
	bytes                           int
	digest                          string
	laneIdle, laneBusy, issued, cyc uint64
}

// TestSaveStateBytesPinned stops a two-lane core at three kinds of point —
// a lane counting down an exec stall, a friend thread that just took over
// its lane from a thread waiting on memory, and a thread draining its
// staged output while another stages its input — at in-pair depths 1, 2
// and 4 (depth 1 has no friend thread), and again when every task is done.
// At each it checks the checkpoint bytes against digests of the encoding
// before the ready mask, that Save → Restore → Save is byte-identical, and
// the exact lane counters.
func TestSaveStateBytesPinned(t *testing.T) {
	want := map[int][]pinPoint{
		1: {
			{"stall", 229, 138461, "8e2450a398b3044f3ea004414bd4dba2e99ed74724129e54541c83f099d87b47", 449, 2, 7, 229},
			{"stage", 1103, 139071, "9370fe5fb0ad57f4141e5860cc50ae2a2444211fe635bed808e70edf9ecda513", 1749, 264, 193, 1103},
			{"done", 1417, 139028, "232a6fbb147293880f00c66b8bd01db22110095d9851a7f28863863c6381b9e4", 2268, 327, 239, 1417},
		},
		2: {
			{"stall", 229, 140193, "3e4552e5a16db205838c4455056afd5b31c549db9a0fbb88a822d38ffffbe1b5", 449, 2, 7, 229},
			{"stage", 435, 140159, "6037cc3fc9abb7c7f077dd7bdc632d1aa6f48c9799f8d5b41dc9c0fcd52cd6cd", 750, 66, 54, 435},
			{"takeover", 677, 140185, "a9808713ab0d28ee074e599fd79b395a40d18cf7c02b9bbafad840c3dfcc6cd5", 1126, 125, 103, 677},
			{"done", 2595, 140512, "6ce1cd9e36930ac5f06c0738bb0b05c522eadd765a858e3c63cff6b3967d5d97", 3980, 699, 511, 2595},
		},
		4: {
			{"stall", 229, 143657, "aebf06a4aafcca5a7d272deeb35594e54030a0241da7c2b3d162ff1fb3fedc9b", 449, 2, 7, 229},
			{"stage", 435, 143623, "d4251cc42cbbceea2b673b9dbf6f425514bdeea30eb386c407efc2092469eef3", 750, 66, 54, 435},
			{"takeover", 677, 143649, "9b2c0bbab3d5797aa81f4db64f20234d4cd96dd2ff7fe9c7449613483643c2d2", 1126, 125, 103, 677},
			{"done", 5264, 143320, "4b189602536ef75aba2f552d96df488e9498d0e1eb79ce46de5bb89a87956f1a", 7978, 1473, 1077, 5264},
		},
	}
	for _, tpl := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("tpl%d", tpl), func(t *testing.T) {
			got := pinRun(t, tpl)
			if len(got) != len(want[tpl]) {
				t.Fatalf("stopped at %d points, want %d", len(got), len(want[tpl]))
			}
			for i, w := range want[tpl] {
				if got[i] != w {
					t.Errorf("%s point:\n got %+v\nwant %+v", w.kind, got[i], w)
				}
			}
		})
	}
}

// pinRun runs a pinRig to completion and returns the first point of each
// kind, checking Save → Restore → Save at each.
func pinRun(t *testing.T, threadsPerLane int) []pinPoint {
	r := pinRig(t, threadsPerLane)
	c := r.cores[0]
	tasks := 2 * len(c.threads)
	kinds := []string{"stall", "takeover", "stage"}
	if threadsPerLane == 1 {
		kinds = []string{"stall", "stage"}
	}
	found := map[string]bool{}
	var points []pinPoint
	prevStall := make([]int, len(c.lanes))
	prevCur := make([]int, len(c.lanes))
	var comps []Completion
	for cycle := 1; len(comps) < tasks; cycle++ {
		if cycle > 200_000 {
			t.Fatalf("only %d of %d tasks completed", len(comps), tasks)
		}
		r.eng.Step()
		comps = r.done.DrainInto(comps, 0)
		hit := map[string]bool{}
		for l := range c.lanes {
			s := laneStall(c, l)
			if s > 0 && prevStall[l] == s+1 {
				hit["stall"] = true
			}
			prevStall[l] = s
			base, cur := c.lanes[l].base, c.lanes[l].current
			if cur != prevCur[l] && c.threads[base+prevCur[l]].state == TWaitMem {
				hit["takeover"] = true
			}
			prevCur[l] = cur
		}
		var staging, draining bool
		for _, th := range c.threads {
			staging = staging || th.state == TStaging
			draining = draining || th.state == TDraining
		}
		hit["stage"] = staging && draining
		for _, k := range kinds {
			if !hit[k] || found[k] {
				continue
			}
			found[k] = true
			points = append(points, pinCheckpoint(t, r, k, threadsPerLane))
		}
	}
	if len(points) != len(kinds) {
		t.Fatalf("reached %d of the %d kinds of stop point", len(points), len(kinds))
	}
	return append(points, pinCheckpoint(t, r, "done", threadsPerLane))
}

// pinCheckpoint settles the rig, saves the core, restores the bytes into a
// fresh core of the same shape and checks that saving it again gives the
// same bytes.
func pinCheckpoint(t *testing.T, r *rig, kind string, threadsPerLane int) pinPoint {
	t.Helper()
	r.eng.Settle()
	c := r.cores[0]
	e := snapshot.NewEncoder()
	e.Context = oneProg{pinProg}
	c.SaveState(e)

	fresh := pinRig(t, threadsPerLane).cores[0]
	d := snapshot.NewDecoder(e.Bytes())
	d.Context = oneProg{pinProg}
	fresh.RestoreState(d)
	if err := d.Err(); err != nil || d.Remaining() != 0 {
		t.Fatalf("%s: restore: err %v, %d bytes left", kind, err, d.Remaining())
	}
	e2 := snapshot.NewEncoder()
	e2.Context = oneProg{pinProg}
	fresh.SaveState(e2)
	if !bytes.Equal(e.Bytes(), e2.Bytes()) {
		t.Fatalf("%s: Save -> Restore -> Save changed the bytes", kind)
	}
	return pinPoint{
		kind: kind, cycle: r.eng.Now(), bytes: e.Len(),
		digest:   fmt.Sprintf("%x", sha256.Sum256(e.Bytes())),
		laneIdle: c.Stats.LaneIdle.Value(), laneBusy: c.Stats.LaneBusy.Value(),
		issued: c.Stats.Issued.Value(), cyc: c.Stats.Cycles.Value(),
	}
}

// TestNextReadyMatchesThreadScan: the in-pair switch picks from the ready
// bits in the order of a scan of the lane's threads, the thread after the
// current one first and wrapping around.
func TestNextReadyMatchesThreadScan(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8} {
		for cur := 0; cur < n; cur++ {
			for ready := uint64(1); ready < 1<<uint(n); ready++ {
				want := -1
				for i := 1; i <= n && want < 0; i++ {
					if idx := (cur + i) % n; ready&(1<<uint(idx)) != 0 {
						want = idx
					}
				}
				if got := nextReady(ready, cur); got != want {
					t.Fatalf("%d threads, current %d, ready %b: picked %d, the scan picks %d", n, cur, ready, got, want)
				}
			}
		}
	}
}

// TestRestoreRejectsStrayStall: only a lane's current Ready thread can be
// mid-stall, so a snapshot that stalls any other thread is refused.
func TestRestoreRejectsStrayStall(t *testing.T) {
	r := pinRig(t, 2)
	r.eng.Step() // the tasks are queued on the work port, not yet installed
	c := r.cores[0]
	c.lanes[1].stall = 3 // lane 1's current thread is idle
	e := snapshot.NewEncoder()
	e.Context = oneProg{pinProg}
	c.SaveState(e)
	d := snapshot.NewDecoder(e.Bytes())
	d.Context = oneProg{pinProg}
	pinRig(t, 2).cores[0].RestoreState(d)
	if d.Err() == nil {
		t.Fatal("restore accepted a stall on an idle thread")
	}
}

// TestKillClearsLaneStalls: a core killed while a lane is mid-stall leaves
// no stall behind, so its checkpoint restores.
func TestKillClearsLaneStalls(t *testing.T) {
	r := pinRig(t, 2)
	c := r.cores[0]
	for i := 0; laneStall(c, 0)+laneStall(c, 1) == 0; i++ {
		if i == 10_000 {
			t.Fatal("no lane stalled")
		}
		r.eng.Step()
	}
	c.Kill(r.eng.Now())
	r.eng.Step()
	e := snapshot.NewEncoder()
	e.Context = oneProg{pinProg}
	c.SaveState(e)
	d := snapshot.NewDecoder(e.Bytes())
	d.Context = oneProg{pinProg}
	pinRig(t, 2).cores[0].RestoreState(d)
	if err := d.Err(); err != nil {
		t.Fatalf("restore after a kill: %v", err)
	}
}

// tickCore puts a default-shaped core into one steady state and returns it
// with its clock, for ticking outside the engine: "issue" runs four tasks
// that issue an ALU op or a predicted jump on every lane every cycle from
// the SPM-resident segment, "stall" four tasks that spend 11 of every 12
// cycles in a DIV's exec stall, and "staging" eight staged tasks queued
// behind a DMA engine whose chunks never return.
func tickCore(t testing.TB, kind string) (*Core, uint64) {
	t.Helper()
	progs := map[string]string{
		"issue": `
		loop:
			addi t0, t0, 1
			xor  t1, t0, t2
			add  t2, t2, t1
			j    loop`,
		"stall": `
			li   t2, 3
		loop:
			div  t1, t1, t2
			div  t0, t0, t2
			j    loop`,
		"staging": "halt",
	}
	prog := isa.MustAssemble(kind, progs[kind])
	r := newRig(t, 1, testCfg())
	c := r.cores[0]
	tasks := c.cfg.Lanes
	if kind == "staging" {
		tasks = len(c.threads)
	}
	for i := 0; i < tasks; i++ {
		w := Work{TaskID: i + 1, Prog: prog, CodeBase: codeBase, Args: [8]int64{0x10000 + int64(i)*0x1000}}
		if kind == "staging" {
			w.Stage = []StageRegion{{Arg: 0, Bytes: 4096}}
		}
		assign(r, 0, w)
	}
	// Run until every task is installed and the segment is resident (for
	// staging: until the DMA engine has its chunks in flight), then tick
	// the core alone, so nothing ever answers it.
	want := map[string]ThreadState{"issue": TReady, "stall": TReady, "staging": TStaging}[kind]
	settled := func() bool {
		n := 0
		for _, th := range c.threads {
			if th.state == want {
				n++
			}
		}
		return n == tasks && (kind != "staging" || c.dma.outstanding == dmaMaxOutstanding)
	}
	for i := 0; !settled(); i++ {
		if i == 5000 {
			t.Fatalf("%s: core did not reach its steady state", kind)
		}
		r.eng.Step()
	}
	now := r.eng.Now()
	for i := 0; i < 64; i++ {
		now++
		c.Tick(now)
	}
	if !settled() {
		t.Fatalf("%s: core left its steady state", kind)
	}
	return c, now
}

// BenchmarkCoreTick times one core cycle in each steady state of tickCore.
func BenchmarkCoreTick(b *testing.B) {
	for _, kind := range []string{"issue", "stall", "staging"} {
		b.Run(kind, func(b *testing.B) {
			c, now := tickCore(b, kind)
			issued := c.Stats.Issued.Value()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now++
				c.Tick(now)
			}
			b.StopTimer()
			b.ReportMetric(float64(c.Stats.Issued.Value()-issued)/float64(b.N), "insts/tick")
		})
	}
}

// TestCoreTickAllocatesNothing: a steady-state core cycle allocates nothing.
func TestCoreTickAllocatesNothing(t *testing.T) {
	for _, kind := range []string{"issue", "stall", "staging"} {
		c, now := tickCore(t, kind)
		if n := testing.AllocsPerRun(200, func() { now++; c.Tick(now) }); n != 0 {
			t.Errorf("%s: %.1f allocations per tick, want 0", kind, n)
		}
	}
}
