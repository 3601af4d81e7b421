// Package mem provides the byte-addressed backing stores used throughout the
// simulator: a sparse paged main-memory image and a chunked scratchpad
// buffer. Both cost memory only for what a run writes, and both copy a byte
// range one page or chunk at a time. These are functional stores — timing
// lives in internal/dram, internal/cache and internal/spm.
package mem

import (
	"cmp"
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"
)

const pageBits = 12
const pageSize = 1 << pageBits

// The page directory: the low leafBits of a page key index a leaf table of
// page pointers, and the dirBits above them index the directory of leaf
// tables. Together they cover the keys below dirKeys, addresses under
// 4 GiB, which hold every workload arena and the chip's code region.
const (
	leafBits = 10
	dirBits  = 10
	dirKeys  = 1 << (dirBits + leafBits)
)

type page [pageSize]byte

type leaf [1 << leafBits]atomic.Pointer[page]

// Sparse is a sparse little-endian memory covering the full 64-bit address
// space, allocating 4 KiB pages on first write. The zero value is ready to
// use.
//
// A page under 4 GiB is found in a two-level directory with two atomic
// loads, no lock and no hash; pages above it live in a key-sorted list
// under a mutex.
// A new page (or leaf table) is installed with a compare-and-swap, so
// goroutines may create pages at the same time: the chip's memory
// controllers do, from shards on different partitions. Every access costs
// one lookup per page it touches. The bytes of one page are not
// synchronized: a caller writing a page from one goroutine and reading it
// from another orders the two itself.
type Sparse struct {
	dir   [1 << dirBits]atomic.Pointer[leaf]
	count atomic.Int64 // allocated pages

	mu   sync.Mutex
	high []highPage // pages with keys at or above dirKeys, ascending by key
}

type highPage struct {
	key uint64
	p   *page
}

// findHigh returns where key k is, or would be inserted, in s.high.
func (s *Sparse) findHigh(k uint64) (int, bool) {
	return slices.BinarySearchFunc(s.high, k, func(h highPage, k uint64) int { return cmp.Compare(h.key, k) })
}

// NewSparse returns an empty sparse memory.
func NewSparse() *Sparse { return &Sparse{} }

// lookup returns the page with key k, or nil if none was ever written.
func (s *Sparse) lookup(k uint64) *page {
	if k < dirKeys {
		l := s.dir[k>>leafBits].Load()
		if l == nil {
			return nil
		}
		return l[k&(1<<leafBits-1)].Load()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.findHigh(k); ok {
		return s.high[i].p
	}
	return nil
}

// install returns the page with key k, allocating it on first use. Of two
// goroutines installing the same page, the compare-and-swap lets one win
// and hands its page to both.
func (s *Sparse) install(k uint64) *page {
	if k >= dirKeys {
		return s.installHigh(k)
	}
	slot := &s.dir[k>>leafBits]
	l := slot.Load()
	if l == nil {
		l = new(leaf)
		if !slot.CompareAndSwap(nil, l) {
			l = slot.Load()
		}
	}
	ps := &l[k&(1<<leafBits-1)]
	if p := ps.Load(); p != nil {
		return p
	}
	p := new(page)
	if !ps.CompareAndSwap(nil, p) {
		return ps.Load()
	}
	s.count.Add(1)
	return p
}

func (s *Sparse) installHigh(k uint64) *page {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.findHigh(k)
	if ok {
		return s.high[i].p
	}
	p := new(page)
	s.high = slices.Insert(s.high, i, highPage{k, p})
	s.count.Add(1)
	return p
}

// ByteAt returns the byte at addr (0 if never written).
func (s *Sparse) ByteAt(addr uint64) byte {
	if p := s.lookup(addr >> pageBits); p != nil {
		return p[addr&(pageSize-1)]
	}
	return 0
}

// SetByte stores one byte at addr.
func (s *Sparse) SetByte(addr uint64, v byte) {
	s.install(addr >> pageBits)[addr&(pageSize-1)] = v
}

// Read returns size bytes at addr as a zero-extended little-endian value.
// size must be 1, 2, 4 or 8.
func (s *Sparse) Read(addr uint64, size int) uint64 {
	if off := addr & (pageSize - 1); off+uint64(size) <= pageSize {
		p := s.lookup(addr >> pageBits)
		if p == nil {
			return 0
		}
		switch size {
		case 8:
			return binary.LittleEndian.Uint64(p[off:])
		case 4:
			return uint64(binary.LittleEndian.Uint32(p[off:]))
		case 2:
			return uint64(binary.LittleEndian.Uint16(p[off:]))
		case 1:
			return uint64(p[off])
		}
	}
	// The access straddles two pages (or has an odd size).
	var buf [8]byte
	s.ReadInto(addr, buf[:min(size, 8)])
	return binary.LittleEndian.Uint64(buf[:])
}

// Write stores the low size bytes of val at addr, little-endian.
func (s *Sparse) Write(addr uint64, size int, val uint64) {
	if off := addr & (pageSize - 1); off+uint64(size) <= pageSize {
		switch size {
		case 8:
			binary.LittleEndian.PutUint64(s.install(addr >> pageBits)[off:], val)
			return
		case 4:
			binary.LittleEndian.PutUint32(s.install(addr >> pageBits)[off:], uint32(val))
			return
		case 2:
			binary.LittleEndian.PutUint16(s.install(addr >> pageBits)[off:], uint16(val))
			return
		case 1:
			s.install(addr >> pageBits)[off] = byte(val)
			return
		}
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], val)
	s.WriteBytes(addr, buf[:min(size, 8)])
}

// ReadInto fills dst with the len(dst) bytes starting at addr, one page
// lookup per page the range touches. Bytes never written read as zero, and
// no page is allocated.
func (s *Sparse) ReadInto(addr uint64, dst []byte) {
	for len(dst) > 0 {
		off := addr & (pageSize - 1)
		n := min(len(dst), int(pageSize-off))
		if p := s.lookup(addr >> pageBits); p != nil {
			copy(dst[:n], p[off:])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		addr += uint64(n)
	}
}

// PageRun returns the memory from addr up to n bytes on, cut at the end of
// addr's page, allocating the page on first use. Writing to the run writes
// memory, so a masked or read-modify-write access to a run costs one page
// lookup. The run stays valid until Restore.
func (s *Sparse) PageRun(addr uint64, n int) []byte {
	off := addr & (pageSize - 1)
	return s.install(addr >> pageBits)[off:min(off+uint64(n), pageSize)]
}

// ReadBytes copies n bytes starting at addr into a fresh slice.
func (s *Sparse) ReadBytes(addr uint64, n int) []byte {
	out := make([]byte, n)
	s.ReadInto(addr, out)
	return out
}

// WriteBytes stores b at addr, one page lookup per page it touches.
func (s *Sparse) WriteBytes(addr uint64, b []byte) {
	for len(b) > 0 {
		n := copy(s.PageRun(addr, len(b)), b)
		b = b[n:]
		addr += uint64(n)
	}
}

// ReadUint64 reads an 8-byte little-endian value.
func (s *Sparse) ReadUint64(addr uint64) uint64 { return s.Read(addr, 8) }

// WriteUint64 stores an 8-byte little-endian value.
func (s *Sparse) WriteUint64(addr uint64, v uint64) { s.Write(addr, 8, v) }

// Footprint returns the number of allocated pages (for test assertions).
func (s *Sparse) Footprint() int { return int(s.count.Load()) }

// Flat is a fixed-size zero-based byte store, used for SPM contents. Its
// bytes live in 4 KiB chunks allocated on first write: a chunk never
// written reads as zero and costs one nil pointer.
type Flat struct {
	size   int
	chunks []*page // chunk i holds bytes i<<pageBits onward; nil until written
}

// NewFlat returns a flat store of n bytes.
func NewFlat(n int) *Flat {
	return &Flat{size: n, chunks: make([]*page, (n+pageSize-1)>>pageBits)}
}

// Size returns the store's capacity in bytes.
func (f *Flat) Size() int { return f.size }

// chunk returns the chunk holding in-range offset off, allocating it on
// first use.
func (f *Flat) chunk(off uint64) *page {
	c := f.chunks[off>>pageBits]
	if c == nil {
		c = new(page)
		f.chunks[off>>pageBits] = c
	}
	return c
}

// Read returns size bytes at offset off as a little-endian value. Out-of-
// range accesses read as zero.
func (f *Flat) Read(off uint64, size int) uint64 {
	if o := off & (pageSize - 1); off+uint64(size) <= uint64(f.size) && o+uint64(size) <= pageSize {
		c := f.chunks[off>>pageBits]
		if c == nil {
			return 0
		}
		switch size {
		case 1:
			return uint64(c[o])
		case 2:
			return uint64(binary.LittleEndian.Uint16(c[o:]))
		case 4:
			return uint64(binary.LittleEndian.Uint32(c[o:]))
		case 8:
			return binary.LittleEndian.Uint64(c[o:])
		}
	}
	var buf [8]byte
	f.ReadInto(off, buf[:min(size, 8)])
	return binary.LittleEndian.Uint64(buf[:])
}

// Write stores the low size bytes of val at off. Out-of-range bytes are
// dropped.
func (f *Flat) Write(off uint64, size int, val uint64) {
	if o := off & (pageSize - 1); off+uint64(size) <= uint64(f.size) && o+uint64(size) <= pageSize {
		switch size {
		case 1:
			f.chunk(off)[o] = byte(val)
			return
		case 2:
			binary.LittleEndian.PutUint16(f.chunk(off)[o:], uint16(val))
			return
		case 4:
			binary.LittleEndian.PutUint32(f.chunk(off)[o:], uint32(val))
			return
		case 8:
			binary.LittleEndian.PutUint64(f.chunk(off)[o:], val)
			return
		}
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], val)
	f.WriteBytes(off, buf[:min(size, 8)])
}

// ReadInto fills dst with the bytes starting at off, one chunk at a time.
// Unwritten and out-of-range bytes read as zero.
func (f *Flat) ReadInto(off uint64, dst []byte) {
	for len(dst) > 0 && off < uint64(f.size) {
		o := off & (pageSize - 1)
		n := min(len(dst), int(pageSize-o))
		// Bytes of the last chunk past size are never written, so a run
		// reaching past size copies zeros there.
		if c := f.chunks[off>>pageBits]; c != nil {
			copy(dst[:n], c[o:])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		off += uint64(n)
	}
	clear(dst)
}

// WriteBytes stores b at off, one chunk at a time. Out-of-range bytes are
// dropped.
func (f *Flat) WriteBytes(off uint64, b []byte) {
	for len(b) > 0 && off < uint64(f.size) {
		o := off & (pageSize - 1)
		n := min(len(b), int(pageSize-o), f.size-int(off))
		copy(f.chunk(off)[o:], b[:n])
		b = b[n:]
		off += uint64(n)
	}
}
