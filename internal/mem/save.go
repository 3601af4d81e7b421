package mem

import (
	"slices"

	"smarco/internal/snapshot"
)

// Save serializes the sparse memory: allocated pages in ascending key
// order (the directory's own order, then the sorted high pages),
// so identical contents always encode to identical bytes. No goroutine may
// write the memory meanwhile.
func (s *Sparse) Save(e *snapshot.Encoder) {
	e.U32(uint32(s.Footprint()))
	for i := range s.dir {
		l := s.dir[i].Load()
		if l == nil {
			continue
		}
		for j := range l {
			if p := l[j].Load(); p != nil {
				e.U64(uint64(i)<<leafBits | uint64(j))
				e.Blob(p[:])
			}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, h := range s.high {
		e.U64(h.key)
		e.Blob(h.p[:])
	}
}

// Restore loads the sparse memory in place: the receiver keeps its
// identity (closures and components holding the pointer stay valid) but
// its contents are replaced wholesale, including dropping pages the
// snapshot does not have. No goroutine may use the memory meanwhile.
func (s *Sparse) Restore(d *snapshot.Decoder) {
	for i := range s.dir {
		s.dir[i].Store(nil)
	}
	s.mu.Lock()
	s.high = nil
	s.mu.Unlock()
	s.count.Store(0)
	n := int(d.U32())
	for i := 0; i < n && d.Err() == nil; i++ {
		k := d.U64()
		d.BlobInto(s.install(k)[:])
	}
}

// Save serializes the flat store's contents, all Size bytes of them
// whichever chunks are allocated.
func (f *Flat) Save(e *snapshot.Encoder) {
	buf := make([]byte, f.size)
	f.ReadInto(0, buf)
	e.Blob(buf)
}

// Restore loads the flat store in place; the stored size must match. Only
// the chunks holding a nonzero byte are allocated.
func (f *Flat) Restore(d *snapshot.Decoder) {
	buf := make([]byte, f.size)
	d.BlobInto(buf)
	if d.Err() != nil {
		return
	}
	clear(f.chunks)
	for i := range f.chunks {
		run := buf[i<<pageBits : min((i+1)<<pageBits, f.size)]
		if slices.ContainsFunc(run, func(b byte) bool { return b != 0 }) {
			f.WriteBytes(uint64(i)<<pageBits, run)
		}
	}
}
