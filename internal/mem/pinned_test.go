package mem

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"smarco/internal/snapshot"
)

// fillPinned writes a fixed mix of bytes, words and blobs into pages below
// the directory's limit (the workload arena, a page-straddling word, the
// code region) and above it (pages around 2^63 and the top of the address
// space).
func fillPinned() *Sparse {
	s := NewSparse()
	for i := uint64(0); i < 300; i++ {
		s.Write(0x1_0000+i*40, 8, i*0x9e3779b97f4a7c15)
	}
	s.Write(0x2_0000-3, 8, 0x0123456789abcdef)
	s.WriteBytes(0x4000_0000+100, []byte("code segment"))
	s.SetByte(0x4000_0000+7*pageSize, 0) // a page holding only zeros
	s.Write(1<<63-5, 8, 0xfeedfacecafebeef)
	s.WriteBytes(1<<63+3*pageSize+17, []byte("high"))
	s.Write(^uint64(0)-7, 8, 42)
	return s
}

// TestSaveBytesPinned: the snapshot encoding is the one the map-backed
// store wrote (digest recorded from it for fillPinned), and restoring it
// replaces whatever the store held.
func TestSaveBytesPinned(t *testing.T) {
	const (
		wantLen    = 45192
		wantDigest = "1cea1b78f430d4cbf5a03b57f3a98550311872f2f341928dbcf952b7f5ec7a22"
	)
	s := fillPinned()
	e := snapshot.NewEncoder()
	s.Save(e)
	if got := fmt.Sprintf("%x", sha256.Sum256(e.Bytes())); e.Len() != wantLen || got != wantDigest {
		t.Fatalf("Save: %d bytes, sha256 %s; want %d bytes, sha256 %s", e.Len(), got, wantLen, wantDigest)
	}
	r := NewSparse()
	r.Write(0x3_0000, 8, 1)  // a low page the snapshot lacks
	r.Write(1<<62, 8, 2)     // a high one
	r.Write(0x1_0000, 8, 77) // one it overwrites
	d := snapshot.NewDecoder(e.Bytes())
	r.Restore(d)
	if err := d.Err(); err != nil || d.Remaining() != 0 {
		t.Fatalf("restore: err %v, %d bytes left", err, d.Remaining())
	}
	e2 := snapshot.NewEncoder()
	r.Save(e2)
	if !bytes.Equal(e.Bytes(), e2.Bytes()) {
		t.Fatal("Save -> Restore -> Save changed the bytes")
	}
	if r.Footprint() != s.Footprint() || r.Read(0x3_0000, 8) != 0 || r.Read(1<<62, 8) != 0 {
		t.Fatalf("restore kept pages the snapshot does not have: footprint %d, want %d", r.Footprint(), s.Footprint())
	}
}
