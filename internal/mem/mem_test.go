package mem

import (
	"bytes"
	"testing"
	"testing/quick"

	"smarco/internal/snapshot"
)

func TestSparseReadWriteRoundTrip(t *testing.T) {
	if err := quick.Check(func(addr uint64, val uint64, szSel uint8) bool {
		size := []int{1, 2, 4, 8}[szSel%4]
		s := NewSparse()
		s.Write(addr, size, val)
		mask := ^uint64(0)
		if size < 8 {
			mask = (uint64(1) << (8 * uint(size))) - 1
		}
		return s.Read(addr, size) == val&mask
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSparseZeroDefault(t *testing.T) {
	s := NewSparse()
	if s.Read(0xDEADBEEF, 8) != 0 {
		t.Fatal("unwritten memory should read zero")
	}
	if s.Footprint() != 0 {
		t.Fatal("read must not allocate pages")
	}
}

func TestSparseCrossPageAccess(t *testing.T) {
	s := NewSparse()
	addr := uint64(pageSize - 3) // straddles a page boundary
	s.Write(addr, 8, 0x0123456789ABCDEF)
	if got := s.Read(addr, 8); got != 0x0123456789ABCDEF {
		t.Fatalf("cross-page read = %#x", got)
	}
	if s.Footprint() != 2 {
		t.Fatalf("footprint = %d, want 2", s.Footprint())
	}
}

func TestSparseBytes(t *testing.T) {
	s := NewSparse()
	s.WriteBytes(100, []byte("hello"))
	if string(s.ReadBytes(100, 5)) != "hello" {
		t.Fatal("bytes round trip failed")
	}
	s.WriteUint64(200, 42)
	if s.ReadUint64(200) != 42 {
		t.Fatal("uint64 round trip failed")
	}
}

func TestSparseZeroValueUsable(t *testing.T) {
	var s Sparse
	if s.Read(10, 4) != 0 {
		t.Fatal("zero-value read failed")
	}
	s.Write(10, 4, 7)
	if s.Read(10, 4) != 7 {
		t.Fatal("zero-value write failed")
	}
}

func TestSparseLittleEndian(t *testing.T) {
	s := NewSparse()
	s.Write(0, 4, 0x04030201)
	for i := uint64(0); i < 4; i++ {
		if s.ByteAt(i) != byte(i+1) {
			t.Fatalf("byte %d = %d", i, s.ByteAt(i))
		}
	}
}

func TestFlatMatchesSparse(t *testing.T) {
	if err := quick.Check(func(off uint16, val uint64, szSel uint8) bool {
		size := []int{1, 2, 4, 8}[szSel%4]
		f := NewFlat(1 << 17)
		s := NewSparse()
		o := uint64(off)
		f.Write(o, size, val)
		s.Write(o, size, val)
		return f.Read(o, size) == s.Read(o, size)
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFlatOutOfRange(t *testing.T) {
	f := NewFlat(16)
	f.Write(14, 4, 0xAABBCCDD) // last two bytes dropped
	if got := f.Read(14, 2); got != 0xCCDD {
		t.Fatalf("in-range part = %#x", got)
	}
	if got := f.Read(14, 4); got != 0xCCDD {
		t.Fatalf("read past end = %#x, want zero-padded", got)
	}
	if f.Read(100, 8) != 0 {
		t.Fatal("fully out of range read should be zero")
	}
	if f.Size() != 16 {
		t.Fatalf("size = %d", f.Size())
	}
}

func TestSparseRunsAcrossPages(t *testing.T) {
	s := NewSparse()
	blob := make([]byte, 3*pageSize)
	for i := range blob {
		blob[i] = byte(i*7 + 1)
	}
	addr := uint64(5*pageSize - 100)
	s.WriteBytes(addr, blob)
	if s.Footprint() != 4 {
		t.Fatalf("footprint = %d, want 4", s.Footprint())
	}
	got := make([]byte, len(blob)+200)
	s.ReadInto(addr-100, got)
	for i, b := range got {
		want := byte(0)
		if i >= 100 && i < 100+len(blob) {
			want = blob[i-100]
		}
		if b != want {
			t.Fatalf("byte %d = %d, want %d", i, b, want)
		}
	}
	if run := s.PageRun(addr, 1000); len(run) != 100 || run[0] != blob[0] {
		t.Fatalf("page run of %d bytes starting %d, want 100 starting %d", len(run), run[0], blob[0])
	}
	s.PageRun(addr, 1)[0] = 0xEE
	if s.ByteAt(addr) != 0xEE {
		t.Fatal("a write through a page run did not reach memory")
	}
	if s.Footprint() != 4 {
		t.Fatal("reads or runs of written pages allocated")
	}
}

func TestAbsentPageReadsWithoutAllocating(t *testing.T) {
	s := NewSparse()
	s.Write(0x1_0000, 8, 1) // the probed pages share a leaf and a map with written ones
	s.Write(1<<63, 8, 1)
	var line [64]byte
	if n := testing.AllocsPerRun(100, func() {
		if s.Read(0x2_0000, 8) != 0 || s.Read(1<<63+pageSize, 8) != 0 {
			t.Fatal("an absent page read nonzero")
		}
		s.ReadInto(0x2_0040, line[:])
	}); n != 0 {
		t.Fatalf("reads of absent pages allocate %v times per run", n)
	}
	if s.Footprint() != 2 {
		t.Fatalf("footprint = %d, want 2", s.Footprint())
	}
}

func TestFlatAllocatesChunksOnWrite(t *testing.T) {
	// An SPM's data array: 31 whole chunks and a partial one.
	f := NewFlat(130816)
	f.Write(2*pageSize-2, 4, 0xAABBCCDD) // straddles chunks 1 and 2
	f.WriteBytes(31*pageSize+10, []byte("tail"))
	f.Write(130816-2, 4, 0x11223344) // the last two bytes are dropped
	allocated := 0
	for _, c := range f.chunks {
		if c != nil {
			allocated++
		}
	}
	if allocated != 3 {
		t.Fatalf("%d chunks allocated, want 3", allocated)
	}
	if got := f.Read(2*pageSize-2, 4); got != 0xAABBCCDD {
		t.Fatalf("straddling read = %#x", got)
	}
	if got := f.Read(130816-2, 4); got != 0x3344 {
		t.Fatalf("read past the end = %#x, want 0x3344", got)
	}
	got := make([]byte, 8)
	f.ReadInto(31*pageSize+10, got)
	if string(got) != "tail\x00\x00\x00\x00" {
		t.Fatalf("ReadInto = %q", got)
	}
}

func TestFlatRestoreAllocatesNonzeroChunks(t *testing.T) {
	f := NewFlat(10 * pageSize)
	f.Write(0, 8, 0) // allocated, but holds only zeros
	f.Write(3*pageSize+8, 8, 42)
	f.WriteBytes(9*pageSize+pageSize/2, []byte("end"))
	e := snapshot.NewEncoder()
	f.Save(e)
	if e.Len() != 4+f.Size() {
		t.Fatalf("Save wrote %d bytes, want %d", e.Len(), 4+f.Size())
	}
	r := NewFlat(f.Size())
	r.Write(6*pageSize, 8, 7) // the snapshot holds zeros there
	d := snapshot.NewDecoder(e.Bytes())
	r.Restore(d)
	if err := d.Err(); err != nil || d.Remaining() != 0 {
		t.Fatalf("restore: err %v, %d bytes left", err, d.Remaining())
	}
	for i, c := range r.chunks {
		if want := i == 3 || i == 9; (c != nil) != want {
			t.Fatalf("chunk %d allocated %t after restore, want %t", i, c != nil, want)
		}
	}
	e2 := snapshot.NewEncoder()
	r.Save(e2)
	if !bytes.Equal(e.Bytes(), e2.Bytes()) {
		t.Fatal("Save -> Restore -> Save changed the bytes")
	}
	d = snapshot.NewDecoder(e.Bytes())
	if NewFlat(pageSize).Restore(d); d.Err() == nil {
		t.Fatal("restoring into a store of another size succeeded")
	}
}

// BenchmarkSparse times the accesses the chip makes to its DRAM image: a
// core's or controller's 8-byte read and write, and a controller's
// 64-byte line read into a batch response.
func BenchmarkSparse(b *testing.B) {
	s := NewSparse()
	for a := uint64(0x1_0000); a < 0x11_0000; a += 8 {
		s.Write(a, 8, a)
	}
	addr := func(i int) uint64 { return 0x1_0000 + uint64(i*64)&0xF_FFC0 }
	b.Run("read8", func(b *testing.B) {
		b.ReportAllocs()
		var sum uint64
		for i := 0; i < b.N; i++ {
			sum += s.Read(addr(i), 8)
		}
		sink = sum
	})
	b.Run("write8", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Write(addr(i), 8, uint64(i))
		}
	})
	b.Run("line64", func(b *testing.B) {
		b.ReportAllocs()
		var line [64]byte
		for i := 0; i < b.N; i++ {
			s.ReadInto(addr(i), line[:])
		}
		sink = uint64(line[0])
	})
}

var sink uint64
