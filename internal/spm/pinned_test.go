package spm

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"smarco/internal/snapshot"
)

// fillPinned writes data into a few of the SPM's chunks (one word
// straddling two of them, one byte in the last, partial chunk), leaves the
// rest untouched, and programs and completes a DMA through the control
// window.
func fillPinned() *SPM {
	s := New(5)
	for i := uint64(0); i < 64; i++ {
		s.Write(i*8, 8, i*0x9e3779b97f4a7c15)
	}
	s.WriteBytes(3*4096+100, []byte("staged input"))
	s.Write(9*4096-3, 8, 0x0123456789abcdef)
	s.Write(DataBytes-1, 1, 0x5a)
	s.Write(DataBytes+RegDMASrc, 8, 0x1_0000)
	s.Write(DataBytes+RegDMADst, 8, AddrOf(5, 64))
	s.Write(DataBytes+RegDMALen, 8, 128)
	s.Write(DataBytes+RegDMACtl, 8, 1)
	s.TakeDMAKick()
	s.CompleteDMA()
	s.Write(DataBytes+RegDMALen, 8, 256) // programmed, not started
	return s
}

// TestSaveStateBytesPinned: the snapshot encoding is the one the dense
// data array wrote (digest recorded from it for fillPinned), and it
// round-trips into an SPM holding data of its own.
func TestSaveStateBytesPinned(t *testing.T) {
	const (
		wantLen    = 131080
		wantDigest = "b16bcb0eae7584920c26396cee91700f51e7d6cae179b92c949d5128ce6f7ac3"
	)
	s := fillPinned()
	e := snapshot.NewEncoder()
	s.SaveState(e)
	if got := fmt.Sprintf("%x", sha256.Sum256(e.Bytes())); e.Len() != wantLen || got != wantDigest {
		t.Fatalf("SaveState: %d bytes, sha256 %s; want %d bytes, sha256 %s", e.Len(), got, wantLen, wantDigest)
	}
	r := New(5)
	r.Write(20*4096, 8, 99) // a chunk the snapshot holds as zeros
	r.Write(0, 8, 7)        // one it overwrites
	d := snapshot.NewDecoder(e.Bytes())
	r.RestoreState(d)
	if err := d.Err(); err != nil || d.Remaining() != 0 {
		t.Fatalf("restore: err %v, %d bytes left", err, d.Remaining())
	}
	e2 := snapshot.NewEncoder()
	r.SaveState(e2)
	if !bytes.Equal(e.Bytes(), e2.Bytes()) {
		t.Fatal("SaveState -> RestoreState -> SaveState changed the bytes")
	}
	if r.Read(20*4096, 8) != 0 {
		t.Fatal("restore kept data the snapshot does not have")
	}
}
