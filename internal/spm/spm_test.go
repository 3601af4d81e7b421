package spm

import (
	"testing"
	"testing/quick"
)

func TestAddressMapRoundTrip(t *testing.T) {
	if err := quick.Check(func(core uint8, off uint32) bool {
		c := int(core)
		o := uint64(off) % Stride
		addr := AddrOf(c, o)
		return IsSPMAddr(addr, 256) && CoreOf(addr) == c && OffsetOf(addr) == o
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIsSPMAddrBounds(t *testing.T) {
	if IsSPMAddr(GlobalBase-1, 256) {
		t.Fatal("address below base classified as SPM")
	}
	if !IsSPMAddr(GlobalBase, 256) {
		t.Fatal("base address not classified as SPM")
	}
	if IsSPMAddr(GlobalBase+256*Stride, 256) {
		t.Fatal("address past last SPM classified as SPM")
	}
	if IsSPMAddr(GlobalBase+16*Stride, 16) {
		t.Fatal("16-core chip must not claim core 16's window")
	}
}

func TestDataReadWrite(t *testing.T) {
	s := New(3)
	s.Write(100, 8, 0xDEADBEEFCAFEF00D)
	if got := s.Read(100, 8); got != 0xDEADBEEFCAFEF00D {
		t.Fatalf("read = %#x", got)
	}
	if got := s.Read(104, 4); got != 0xDEADBEEF {
		t.Fatalf("partial read = %#x", got)
	}
}

func TestBytesHelpers(t *testing.T) {
	s := New(0)
	s.WriteBytes(10, []byte("scratch"))
	if string(s.ReadBytes(10, 7)) != "scratch" {
		t.Fatal("bytes round trip failed")
	}
}

func TestCtrlRegistersSeparateFromData(t *testing.T) {
	s := New(0)
	// Last data byte and first register byte are neighbours.
	s.Write(DataBytes-1, 1, 0x55)
	s.Write(DataBytes+RegDMASrc, 8, 0x1234)
	if s.Read(DataBytes-1, 1) != 0x55 {
		t.Fatal("register write corrupted data")
	}
	if s.Read(DataBytes+RegDMASrc, 8) != 0x1234 {
		t.Fatal("register readback failed")
	}
}

func TestDMAKickProtocol(t *testing.T) {
	s := New(0)
	if _, kicked := s.TakeDMAKick(); kicked {
		t.Fatal("kick without ctl write")
	}
	s.Write(DataBytes+RegDMASrc, 8, 0x1000)
	s.Write(DataBytes+RegDMADst, 8, AddrOf(0, 0))
	s.Write(DataBytes+RegDMALen, 8, 256)
	s.Write(DataBytes+RegDMACtl, 8, 1)
	req, kicked := s.TakeDMAKick()
	if !kicked {
		t.Fatal("kick not detected")
	}
	if req.Src != 0x1000 || req.Dst != AddrOf(0, 0) || req.Len != 256 {
		t.Fatalf("req = %+v", req)
	}
	if !s.DMABusy() {
		t.Fatal("engine should be busy after kick")
	}
	if _, again := s.TakeDMAKick(); again {
		t.Fatal("kick must be consumed")
	}
	s.CompleteDMA()
	if s.DMABusy() {
		t.Fatal("engine still busy after completion")
	}
	if got := s.Read(DataBytes+RegDMADoneCt, 8); got != 1 {
		t.Fatalf("done count = %d", got)
	}
}

func TestCtrlBase(t *testing.T) {
	if CtrlBase(2) != AddrOf(2, DataBytes) {
		t.Fatal("CtrlBase mismatch")
	}
	if CtrlBytes != 256 {
		t.Fatal("paper specifies a 256-byte control window")
	}
}

func TestUnwrittenChunkReadsWithoutAllocating(t *testing.T) {
	s := New(0)
	s.Write(0, 8, 1) // the probed chunk neighbours a written one
	if n := testing.AllocsPerRun(100, func() {
		if s.Read(4096, 8) != 0 || s.Read(DataBytes-8, 8) != 0 {
			t.Fatal("an unwritten chunk read nonzero")
		}
	}); n != 0 {
		t.Fatalf("reads of an unwritten chunk allocate %v times per run", n)
	}
}
