package cache

import "smarco/internal/snapshot"

// SaveState implements sim.Saver: the tag array (valid/dirty/tag/LRU
// timestamp per way), the LRU tick, and the counters. Geometry is
// configuration and is rebuilt by construction. The encoding does not
// depend on which chunks are allocated: a set never filled encodes as
// invalid ways.
func (c *Cache) SaveState(e *snapshot.Encoder) {
	e.U64(c.tick)
	nsets := c.setMask + 1
	e.U32(uint32(nsets))
	for s := uint64(0); s < nsets; s++ {
		e.U32(uint32(c.cfg.Ways))
		set := c.set(s)
		for i := 0; i < c.cfg.Ways; i++ {
			var w way
			if set != nil {
				w = set[i]
			}
			e.Bool(w.used != 0)
			e.Bool(w.tag&dirtyBit != 0)
			e.U64(w.tag &^ dirtyBit)
			e.U64(w.used)
		}
	}
	c.Stats.Accesses.Save(e)
	c.Stats.Misses.Save(e)
	c.Stats.Evictions.Save(e)
	c.Stats.Writeback.Save(e)
}

// RestoreState implements sim.Restorer. Only chunks holding a valid way are
// allocated.
func (c *Cache) RestoreState(d *snapshot.Decoder) {
	c.tick = d.U64()
	nsets := c.setMask + 1
	if n := uint64(d.U32()); n != nsets {
		d.Fail("cache: snapshot has %d sets, cache has %d", n, nsets)
		return
	}
	clear(c.chunks)
	for s := uint64(0); s < nsets; s++ {
		if n := int(d.U32()); n != c.cfg.Ways {
			d.Fail("cache: snapshot has %d ways, cache has %d", n, c.cfg.Ways)
			return
		}
		set := c.set(s)
		for i := 0; i < c.cfg.Ways; i++ {
			valid, dirty := d.Bool(), d.Bool()
			w := way{tag: d.U64(), used: d.U64()}
			// Valid ways carry a nonzero stamp and a line number below the
			// dirty bit; invalid ways are all zero (see way).
			if valid != (w.used != 0) || w.tag&dirtyBit != 0 || (!valid && (dirty || w.tag != 0)) {
				d.Fail("cache: set %d way %d is not a state the tag array holds", s, i)
				return
			}
			if !valid {
				continue
			}
			if dirty {
				w.tag |= dirtyBit
			}
			if set == nil {
				set = c.allocate(s)
			}
			set[i] = w
		}
	}
	c.Stats.Accesses.Restore(d)
	c.Stats.Misses.Restore(d)
	c.Stats.Evictions.Restore(d)
	c.Stats.Writeback.Restore(d)
}
