package experiments

import (
	"fmt"

	"smarco/internal/chip"
	"smarco/internal/kernels"
	"smarco/internal/noc"
	"smarco/internal/runner"
	"smarco/internal/stats"
)

// NearMemResult compares running string matching on the TCG cores (the KMP
// kernel) against offloading it to the near-memory match units — the
// paper's §7 future-work direction ("apply in-memory computing techniques
// to handle those simple and fixed computing patterns, such as string
// matching").
type NearMemResult struct {
	Shards       int
	ShardBytes   int
	CoreCycles   uint64
	NearCycles   uint64
	Speedup      float64
	CoreBusBytes uint64 // DRAM bus traffic when cores do the work
	NearBusBytes uint64 // ... when the match units do it
}

// NearMemoryMatch measures both paths on identical inputs and verifies the
// near-memory counts against the KMP reference. The two paths are separate
// jobs on the run pool.
func NearMemoryMatch(scale Scale, seed uint64) (NearMemResult, error) {
	cfg := chipConfig(scale)
	shards := 2 * cfg.Cores()
	shardBytes := 2048
	if scale == ScalePaper {
		shardBytes = 8192
	}
	type path struct{ cycles, busBytes uint64 }
	paths, err := runner.Map(pool, 2, func(i int) (path, error) {
		w := kernels.MustNew("kmp", kernels.Config{Seed: seed, Tasks: shards, Scale: shardBytes})
		if i == 0 {
			// Path 1: the KMP kernel on the cores (streaming, as usual).
			c, err := runOnChip(cfg, w, 8*cycleBudget(scale))
			if err != nil {
				return path{}, fmt.Errorf("nearmem core path: %w", err)
			}
			return path{c.Now(), c.Metrics().MemBusBytes}, nil
		}
		c, err := nearMemOffload(cfg, w, 8*cycleBudget(scale))
		if err != nil {
			return path{}, err
		}
		return path{c.Now(), c.Metrics().MemBusBytes}, nil
	})
	if err != nil {
		return NearMemResult{}, err
	}
	core, near := paths[0], paths[1]
	return NearMemResult{
		Shards:       shards,
		ShardBytes:   shardBytes,
		CoreCycles:   core.cycles,
		NearCycles:   near.cycles,
		Speedup:      float64(core.cycles) / float64(near.cycles),
		CoreBusBytes: core.busBytes,
		NearBusBytes: near.busBytes,
	}, nil
}

// nearMemOffload is the offload path: the host sends one match command per
// shard of w to the controller owning its text, and only counts cross the
// chip. It runs on the serial executor, as runOnChip does, and checks every
// count against the KMP reference.
func nearMemOffload(cfg chip.Config, w *kernels.Workload, budget uint64) (*chip.Chip, error) {
	cfg.Executor = "serial"
	c := chip.New(cfg, w.Mem)
	pattern := [8]byte{'a', 'b', 'a', 'b'}
	want := map[uint64]uint64{}
	for i, task := range w.Tasks {
		textAddr := uint64(task.Args[0])
		textLen := uint64(task.Args[1])
		id := uint64(i + 1)
		req := noc.MatchReq{ID: id, TextAddr: textAddr, TextLen: textLen, Pattern: pattern, PatLen: 4}
		// Page-interleaving may split a shard across controllers; these
		// shards are page-aligned enough in practice that we send to the
		// owner of the first byte and let its unit scan the region (the
		// unit reads through the shared backing store).
		c.HostSend(noc.NewMatchReqPacket(id, noc.HostNode(), mcOf(c, textAddr), req, 0))
		text := w.Mem.ReadBytes(textAddr, int(textLen))
		want[id] = refCount(text, pattern[:4])
	}
	got := map[uint64]uint64{}
	if _, err := c.RunUntil(budget, func() bool {
		for _, p := range c.HostReceive() {
			resp := p.Payload.(noc.MatchResp)
			got[resp.ID] = resp.Count
		}
		return len(got) == len(w.Tasks)
	}); err != nil {
		return nil, fmt.Errorf("nearmem offload path: %w", err)
	}
	for id, n := range want {
		if got[id] != n {
			return nil, fmt.Errorf("nearmem: shard %d count %d, want %d", id, got[id], n)
		}
	}
	return c, nil
}

func mcOf(c *chip.Chip, addr uint64) noc.NodeID {
	return noc.MCNode(int((addr >> 12) % uint64(c.Config.MCs)))
}

// refCount counts overlapping occurrences (KMP semantics).
func refCount(text, pat []byte) uint64 {
	var n uint64
	for i := 0; i+len(pat) <= len(text); i++ {
		match := true
		for j := range pat {
			if text[i+j] != pat[j] {
				match = false
				break
			}
		}
		if match {
			n++
		}
	}
	return n
}

// NearMemTable renders the study.
func NearMemTable(r NearMemResult) *stats.Table {
	t := stats.NewTable("Near-memory string matching (§7 future work)",
		"path", "cycles", "DRAM bus bytes")
	t.AddRow("KMP on TCG cores", r.CoreCycles, r.CoreBusBytes)
	t.AddRow("near-memory match units", r.NearCycles, r.NearBusBytes)
	t.AddRow("offload speedup", r.Speedup, "")
	return t
}
