// Package cache provides set-associative cache timing models (tag arrays
// with LRU replacement). Caches here model *timing only*: instruction and
// data contents live in the functional stores, so the same model serves the
// TCG cores' 16 KB L1s and the conventional baseline's three-level
// hierarchy without needing a coherence protocol.
package cache

import (
	"fmt"

	"smarco/internal/stats"
)

// Config sizes a cache.
type Config struct {
	SizeBytes  int
	LineBytes  int
	Ways       int
	HitLatency int // cycles
}

// L1D16K is the TCG core's 16 KB data cache.
func L1D16K() Config { return Config{SizeBytes: 16 << 10, LineBytes: 64, Ways: 4, HitLatency: 2} }

// L1I16K is the TCG core's 16 KB instruction cache.
func L1I16K() Config { return Config{SizeBytes: 16 << 10, LineBytes: 64, Ways: 4, HitLatency: 1} }

// Stats counts cache events.
type Stats struct {
	Accesses  stats.Counter
	Misses    stats.Counter
	Evictions stats.Counter
	Writeback stats.Counter
}

// MissRatio returns misses/accesses.
func (s *Stats) MissRatio() float64 {
	return stats.Ratio(s.Misses.Value(), s.Accesses.Value())
}

// way is one tag-array entry, 16 bytes. A way is valid exactly when
// used != 0: every fill and hit stamps the pre-incremented tick, which is
// at least 1, and invalidation zeroes the way. The dirty bit rides in the
// tag's top bit; tags are line numbers (addr >> log2(LineBytes), with lines
// of at least two bytes), so that bit is never part of a tag.
type way struct {
	tag  uint64 // line number, plus dirtyBit
	used uint64 // LRU timestamp; 0 marks an invalid way
}

const dirtyBit = 1 << 63

// chunkSets is how many sets share one lazily allocated block of ways (a
// smaller cache is one chunk). Memory follows the sets a run fills: the
// conventional baseline's 64 MB, 16-way LLC is 256 chunks of 64 KB, and a
// run that fills a few of them pays for those rather than for 16 MB of
// ways up front.
const chunkSets = 256

// Cache is a set-associative tag array with true-LRU replacement. Ways are
// stored set-major in chunks of chunkSets sets; a chunk is allocated on its
// first Fill, and lookups in a chunk never filled miss without allocating.
type Cache struct {
	cfg        Config
	chunks     [][]way // chunk i holds sets i<<chunkShift onward; nil until filled
	setMask    uint64
	chunkShift uint // log2 of the sets per chunk
	shift      uint // log2 of the line size
	tick       uint64
	Stats      Stats
}

// New builds a cache. Size must be divisible by LineBytes*Ways, and the line
// size and set count must be powers of two.
func New(cfg Config) (*Cache, error) {
	if cfg.LineBytes < 2 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		return nil, fmt.Errorf("cache: line size %d not a power of two of at least 2", cfg.LineBytes)
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	if lines <= 0 || cfg.Ways <= 0 || lines%cfg.Ways != 0 {
		return nil, fmt.Errorf("cache: bad geometry %+v", cfg)
	}
	nsets := lines / cfg.Ways
	if nsets&(nsets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d not a power of two", nsets)
	}
	c := &Cache{cfg: cfg, setMask: uint64(nsets - 1)}
	for 1<<c.shift < cfg.LineBytes {
		c.shift++
	}
	for 1<<c.chunkShift < min(nsets, chunkSets) {
		c.chunkShift++
	}
	c.chunks = make([][]way, nsets>>c.chunkShift)
	return c, nil
}

// MustNew builds a cache, panicking on invalid geometry. Convenience for
// statically known-good configs (tests, presets).
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr &^ (uint64(c.cfg.LineBytes) - 1)
}

// locate returns the set index and the tag. The tag is the full line number
// (set bits included), which makes victim-address reconstruction trivial.
func (c *Cache) locate(addr uint64) (set, tag uint64) {
	line := addr >> c.shift
	return line & c.setMask, line
}

// set returns the ways of set s, or nil while its chunk has never been
// filled.
func (c *Cache) set(s uint64) []way {
	chunk := c.chunks[s>>c.chunkShift]
	if chunk == nil {
		return nil
	}
	i := int(s&(1<<c.chunkShift-1)) * c.cfg.Ways
	return chunk[i : i+c.cfg.Ways]
}

// allocate gives set s's chunk its ways and returns the set's.
func (c *Cache) allocate(s uint64) []way {
	c.chunks[s>>c.chunkShift] = make([]way, c.cfg.Ways<<c.chunkShift)
	return c.set(s)
}

// lookup returns the valid way of set holding tag, or nil.
func lookup(set []way, tag uint64) *way {
	for i := range set {
		if w := &set[i]; w.tag&^dirtyBit == tag && w.used != 0 {
			return w
		}
	}
	return nil
}

// Access looks up addr, updating LRU state and statistics. Returns whether
// it hit. The access spans a line boundary if addr..addr+size-1 crosses one;
// callers split such accesses.
func (c *Cache) Access(addr uint64, write bool) bool {
	c.tick++
	c.Stats.Accesses.Inc()
	set, tag := c.locate(addr)
	if w := lookup(c.set(set), tag); w != nil {
		w.used = c.tick
		if write {
			w.tag |= dirtyBit
		}
		return true
	}
	c.Stats.Misses.Inc()
	return false
}

// Probe reports whether addr is resident without touching LRU or stats.
func (c *Cache) Probe(addr uint64) bool {
	set, tag := c.locate(addr)
	return lookup(c.set(set), tag) != nil
}

// Fill installs the line containing addr, evicting the LRU way if needed.
// It returns the evicted line's address and whether a dirty writeback is
// required.
func (c *Cache) Fill(addr uint64, write bool) (victim uint64, writeback bool) {
	c.tick++
	s, tag := c.locate(addr)
	set := c.set(s)
	if set == nil {
		set = c.allocate(s)
	}
	// Already present (e.g. a second miss to the same line raced the fill).
	if w := lookup(set, tag); w != nil {
		w.used = c.tick
		if write {
			w.tag |= dirtyBit
		}
		return 0, false
	}
	lru := 0
	for i := range set {
		if set[i].used == 0 {
			lru = i
			break
		}
		if set[i].used < set[lru].used {
			lru = i
		}
	}
	w := &set[lru]
	if w.used != 0 {
		c.Stats.Evictions.Inc()
		victim = (w.tag &^ dirtyBit) << c.shift
		writeback = w.tag&dirtyBit != 0
		if writeback {
			c.Stats.Writeback.Inc()
		}
	}
	*w = way{tag: tag, used: c.tick}
	if write {
		w.tag |= dirtyBit
	}
	return victim, writeback
}

// HitLatency returns the configured hit latency.
func (c *Cache) HitLatency() int { return c.cfg.HitLatency }

// InvalidateAll clears the cache (used between benchmark phases) and
// releases its ways.
func (c *Cache) InvalidateAll() { clear(c.chunks) }
