package cache

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"
	"testing/quick"

	"smarco/internal/sim"
	"smarco/internal/snapshot"
)

func TestColdMissThenHit(t *testing.T) {
	c := MustNew(L1D16K())
	if c.Access(0x1000, false) {
		t.Fatal("cold access hit")
	}
	c.Fill(0x1000, false)
	if !c.Access(0x1000, false) {
		t.Fatal("post-fill access missed")
	}
	if !c.Access(0x1030, false) {
		t.Fatal("same-line access missed")
	}
	if c.Access(0x1040, false) {
		t.Fatal("next-line access hit without fill")
	}
}

func TestLRUEviction(t *testing.T) {
	// Two-way cache, walk three lines mapping to the same set.
	cfg := Config{SizeBytes: 4 << 10, LineBytes: 64, Ways: 2, HitLatency: 1}
	c := MustNew(cfg)
	setStride := uint64(cfg.SizeBytes / cfg.Ways) // lines that alias to set 0
	a, b, d := uint64(0), setStride, 2*setStride
	c.Access(a, false)
	c.Fill(a, false)
	c.Access(b, false)
	c.Fill(b, false)
	c.Access(a, false) // touch a so b becomes LRU
	victim, wb := c.Fill(d, false)
	if wb {
		t.Fatal("clean line should not write back")
	}
	if victim != b {
		t.Fatalf("victim = %#x, want %#x", victim, b)
	}
	if !c.Probe(a) || !c.Probe(d) || c.Probe(b) {
		t.Fatal("wrong resident set after eviction")
	}
}

func TestDirtyWriteback(t *testing.T) {
	cfg := Config{SizeBytes: 128, LineBytes: 64, Ways: 1, HitLatency: 1}
	c := MustNew(cfg)
	c.Fill(0, true) // dirty fill
	victim, wb := c.Fill(128, false)
	if !wb || victim != 0 {
		t.Fatalf("expected dirty writeback of line 0, got victim=%#x wb=%v", victim, wb)
	}
	if c.Stats.Writeback.Value() != 1 {
		t.Fatal("writeback not counted")
	}
}

func TestWriteHitSetsDirty(t *testing.T) {
	cfg := Config{SizeBytes: 128, LineBytes: 64, Ways: 1, HitLatency: 1}
	c := MustNew(cfg)
	c.Fill(0, false)
	c.Access(0, true) // write hit dirties the line
	_, wb := c.Fill(128, false)
	if !wb {
		t.Fatal("write-hit line should write back on eviction")
	}
}

func TestFillIdempotentWhenPresent(t *testing.T) {
	c := MustNew(L1D16K())
	c.Fill(0x2000, false)
	victim, wb := c.Fill(0x2000, false)
	if victim != 0 || wb {
		t.Fatal("refilling resident line must not evict")
	}
}

func TestMissRatioStats(t *testing.T) {
	c := MustNew(L1D16K())
	for i := 0; i < 10; i++ {
		addr := uint64(i * 64)
		if !c.Access(addr, false) {
			c.Fill(addr, false)
		}
		c.Access(addr, false)
	}
	if got := c.Stats.Accesses.Value(); got != 20 {
		t.Fatalf("accesses = %d", got)
	}
	if got := c.Stats.Misses.Value(); got != 10 {
		t.Fatalf("misses = %d", got)
	}
	if r := c.Stats.MissRatio(); r != 0.5 {
		t.Fatalf("miss ratio = %v", r)
	}
}

func TestInvalidateAll(t *testing.T) {
	c := MustNew(L1D16K())
	c.Fill(0x40, false)
	c.InvalidateAll()
	if c.Probe(0x40) {
		t.Fatal("line survived invalidation")
	}
}

func TestLineAddr(t *testing.T) {
	c := MustNew(L1D16K())
	if c.LineAddr(0x1234) != 0x1200 {
		t.Fatalf("LineAddr = %#x", c.LineAddr(0x1234))
	}
}

func TestBadGeometryErrors(t *testing.T) {
	if _, err := New(Config{SizeBytes: 100, LineBytes: 64, Ways: 3}); err == nil {
		t.Fatal("expected error for bad geometry")
	}
	if _, err := New(Config{SizeBytes: 24 << 10, LineBytes: 64, Ways: 2}); err == nil {
		t.Fatal("expected error for non-power-of-two set count")
	}
	for _, line := range []int{0, 1, 48} {
		if _, err := New(Config{SizeBytes: 96 << 10, LineBytes: line, Ways: 2}); err == nil {
			t.Fatalf("expected error for %d-byte lines", line)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew(Config{SizeBytes: 100, LineBytes: 64, Ways: 3})
}

// TestMatchesReferenceModel cross-checks the cache against a brute-force
// fully-mapped LRU reference over random access streams.
func TestMatchesReferenceModel(t *testing.T) {
	type refLine struct {
		line uint64
		used uint64
	}
	if err := quick.Check(func(seed uint64) bool {
		cfg := Config{SizeBytes: 1 << 10, LineBytes: 64, Ways: 2, HitLatency: 1}
		c := MustNew(cfg)
		nsets := cfg.SizeBytes / cfg.LineBytes / cfg.Ways
		ref := make(map[int][]refLine) // set -> resident lines
		rng := sim.NewRNG(seed)
		var tick uint64
		for i := 0; i < 300; i++ {
			addr := uint64(rng.Intn(64)) * 64 // 64 distinct lines
			line := addr / 64
			set := int(line) % nsets
			tick++
			// Reference lookup.
			hitRef := false
			for j := range ref[set] {
				if ref[set][j].line == line {
					ref[set][j].used = tick
					hitRef = true
					break
				}
			}
			hit := c.Access(addr, false)
			if hit != hitRef {
				return false
			}
			if !hit {
				c.Fill(addr, false)
				if len(ref[set]) < cfg.Ways {
					ref[set] = append(ref[set], refLine{line: line, used: tick})
				} else {
					lru := 0
					for j := range ref[set] {
						if ref[set][j].used < ref[set][lru].used {
							lru = j
						}
					}
					ref[set][lru] = refLine{line: line, used: tick}
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// llcGeometry is the conventional baseline's LLC (conv.XeonE78890V4): 64 MB,
// 16-way, 64K sets.
var llcGeometry = Config{SizeBytes: 64 << 20, LineBytes: 64, Ways: 16, HitLatency: 40}

func TestUnfilledSetMissesWithoutAllocating(t *testing.T) {
	c := MustNew(llcGeometry)
	c.Fill(0, false) // one chunk filled; the probed set lives in another
	addr := uint64(40_000) << 6
	if n := testing.AllocsPerRun(100, func() {
		if c.Access(addr, true) || c.Probe(addr) {
			t.Fatal("never-filled set hit")
		}
	}); n != 0 {
		t.Fatalf("lookups in a never-filled set allocate %v times per run", n)
	}
	if c.set(40_000) != nil {
		t.Fatal("a lookup allocated the never-filled set's chunk")
	}
	if got := c.Stats.Misses.Value(); got != c.Stats.Accesses.Value() {
		t.Fatalf("misses = %d of %d accesses", got, c.Stats.Accesses.Value())
	}
}

func TestLLCGeometryAllocatesOnlyWhatItFills(t *testing.T) {
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var c *Cache
	if n := allocated(func() { c = MustNew(llcGeometry) }); n >= 1<<20 {
		t.Fatalf("building the LLC allocated %d bytes before its first fill", n)
	}
	if n := allocated(func() { c.Fill(0x1234_5678, true) }); n >= 1<<20 {
		t.Fatalf("the LLC's first fill allocated %d bytes", n)
	}
	if !c.Probe(0x1234_5678) {
		t.Fatal("filled line not resident")
	}
}

// fillSparse drives a 1024-set, 2-way cache through a fixed mix of reads,
// writes, fills and evictions that touches only sets 0-39 and 600-639, plus
// a dirty fill of the largest line, so whole chunks stay unfilled.
func fillSparse() *Cache {
	const nsets = 1024
	c := MustNew(Config{SizeBytes: 128 << 10, LineBytes: 64, Ways: 2, HitLatency: 1})
	rng := sim.NewRNG(7)
	for i := 0; i < 3000; i++ {
		set := uint64(rng.Intn(40))
		if rng.Intn(2) == 1 {
			set += 600
		}
		addr := (uint64(rng.Intn(5))*nsets+set)<<6 | uint64(rng.Intn(64))
		write := rng.Intn(4) == 0
		if !c.Access(addr, write) {
			c.Fill(addr, write)
		}
	}
	c.Fill(^uint64(0), true)
	return c
}

// TestSaveStateBytesPinned: the snapshot encoding is the one the dense tag
// array wrote (digest recorded from it for fillSparse), and it round-trips.
func TestSaveStateBytesPinned(t *testing.T) {
	const (
		wantLen    = 41004
		wantDigest = "fbf7b2f48889adffd6a21fdf910cde13ee477224c50d7f3d7fdef95d18492464"
	)
	c := fillSparse()
	e := snapshot.NewEncoder()
	c.SaveState(e)
	if got := fmt.Sprintf("%x", sha256.Sum256(e.Bytes())); e.Len() != wantLen || got != wantDigest {
		t.Fatalf("SaveState: %d bytes, sha256 %s; want %d bytes, sha256 %s", e.Len(), got, wantLen, wantDigest)
	}
	// Restore into a cache with state of its own: every trace of it goes.
	r := MustNew(c.Config())
	r.Fill(300<<6, true)
	d := snapshot.NewDecoder(e.Bytes())
	r.RestoreState(d)
	if err := d.Err(); err != nil || d.Remaining() != 0 {
		t.Fatalf("restore: err %v, %d bytes left", err, d.Remaining())
	}
	e2 := snapshot.NewEncoder()
	r.SaveState(e2)
	if !bytes.Equal(e.Bytes(), e2.Bytes()) {
		t.Fatal("Save -> Restore -> Save changed the bytes")
	}
	for i, chunk := range r.chunks {
		if (chunk != nil) != (c.chunks[i] != nil) {
			t.Fatalf("chunk %d allocated %t after restore, %t in the saved cache", i, chunk != nil, c.chunks[i] != nil)
		}
	}
}

func TestRestoreRejectsUnrepresentableWay(t *testing.T) {
	c := MustNew(Config{SizeBytes: 128, LineBytes: 64, Ways: 1, HitLatency: 1})
	for _, tc := range []struct {
		name         string
		valid, dirty bool
		tag, used    uint64
	}{
		{"valid without a stamp", true, false, 5, 0},
		{"invalid with a stamp", false, false, 0, 3},
		{"invalid with a tag", false, false, 5, 0},
		{"tag using the dirty bit", true, false, 1 << 63, 3},
	} {
		e := snapshot.NewEncoder()
		e.U64(9)
		e.U32(2)
		for s := 0; s < 2; s++ {
			e.U32(1)
			e.Bool(tc.valid)
			e.Bool(tc.dirty)
			e.U64(tc.tag)
			e.U64(tc.used)
		}
		d := snapshot.NewDecoder(e.Bytes())
		c.RestoreState(d)
		if d.Err() == nil {
			t.Errorf("%s: restore accepted it", tc.name)
		}
	}
}

func TestDirtyLargestLineEvicted(t *testing.T) {
	cfg := Config{SizeBytes: 4 << 10, LineBytes: 64, Ways: 2, HitLatency: 1}
	c := MustNew(cfg)
	top := ^uint64(0)
	c.Fill(top, true)
	stride := uint64(cfg.SizeBytes / cfg.Ways) // same set, other lines
	c.Fill(top-stride, false)
	victim, wb := c.Fill(top-2*stride, false)
	if want := top &^ 63; victim != want || !wb {
		t.Fatalf("victim = %#x writeback %t, want %#x writeback true", victim, wb, want)
	}
	if c.Probe(top) || !c.Probe(top-stride) || !c.Probe(top-2*stride) {
		t.Fatal("wrong resident set after eviction")
	}
}
