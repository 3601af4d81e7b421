// Package spm models the per-core ScratchPad Memory (§3.5.1): a 128 KB
// programmer-managed store with unified global addressing, shareable across
// a sub-ring, whose top 256 bytes are DMA control registers. Timing and the
// DMA engine live with the core (internal/cpu); this package owns storage,
// the global SPM address map, and register decoding. Storage is allocated
// as it is written (mem.Flat), and a snapshot still holds all of it.
package spm

import (
	"fmt"

	"smarco/internal/mem"
)

// GlobalBase is where SPM space begins in the unified address map. Every
// core's SPM occupies a Stride-sized window: core i's SPM is at
// [GlobalBase + i*Stride, GlobalBase + i*Stride + Size).
const GlobalBase uint64 = 0xF000_0000

// Size is each core's SPM capacity (128 KB per §3.1).
const Size = 128 << 10

// Stride is the address-map spacing between consecutive cores' SPMs.
const Stride = Size

// CtrlBytes is the register window at the top of each SPM (§3.5.1: "SPMs
// spare top 256 bytes space to act as control registers").
const CtrlBytes = 256

// DataBytes is the usable data capacity below the control registers.
const DataBytes = Size - CtrlBytes

// Control register offsets within the 256-byte window.
const (
	RegDMASrc    = 0  // 8-byte DMA source address (global)
	RegDMADst    = 8  // 8-byte DMA destination address (global)
	RegDMALen    = 16 // 8-byte transfer length in bytes
	RegDMACtl    = 24 // write 1 to start; reads 1 while busy, 0 when idle
	RegDMADoneCt = 32 // count of completed transfers (read-only)
)

// HitLatency is the SPM access latency in cycles ("faster access speed ...
// more predictable than caches").
const HitLatency = 2

// IsSPMAddr reports whether addr falls in global SPM space for a chip with
// cores cores.
func IsSPMAddr(addr uint64, cores int) bool {
	return addr >= GlobalBase && addr < GlobalBase+uint64(cores)*Stride
}

// CoreOf returns which core's SPM contains addr.
func CoreOf(addr uint64) int {
	return int((addr - GlobalBase) / Stride)
}

// OffsetOf returns addr's offset within its SPM window.
func OffsetOf(addr uint64) uint64 {
	return (addr - GlobalBase) % Stride
}

// AddrOf returns the global address of offset off in core's SPM.
func AddrOf(core int, off uint64) uint64 {
	return GlobalBase + uint64(core)*Stride + off
}

// CtrlBase returns the global address of core's control-register window.
func CtrlBase(core int) uint64 {
	return AddrOf(core, DataBytes)
}

// SPM is one core's scratchpad: flat data plus control registers. The data
// array allocates its 4 KB chunks on first write, so a core costs the
// scratchpad it uses, not 128 KB up front; an unwritten chunk reads as zero.
type SPM struct {
	Core int
	data *mem.Flat
	regs [CtrlBytes]byte
}

// New builds core's SPM.
func New(core int) *SPM {
	return &SPM{Core: core, data: mem.NewFlat(DataBytes)}
}

// Read returns size bytes at window offset off (little-endian). Reads of the
// control window return register contents.
func (s *SPM) Read(off uint64, size int) uint64 {
	if off >= DataBytes {
		return s.readReg(off-DataBytes, size)
	}
	return s.data.Read(off, size)
}

// Write stores size bytes at window offset off. Writes to the control
// window update registers; a write of 1 to RegDMACtl is detected by the
// core's DMA engine via TakeDMAKick.
func (s *SPM) Write(off uint64, size int, val uint64) {
	if off >= DataBytes {
		s.writeReg(off-DataBytes, size, val)
		return
	}
	s.data.Write(off, size, val)
}

// ReadBytes copies n data bytes from off (for DMA chunking), one data
// chunk at a time.
func (s *SPM) ReadBytes(off uint64, n int) []byte {
	out := make([]byte, n)
	s.data.ReadInto(off, out)
	return out
}

// WriteBytes stores b at data offset off, one data chunk at a time.
func (s *SPM) WriteBytes(off uint64, b []byte) {
	s.data.WriteBytes(off, b)
}

func (s *SPM) readReg(off uint64, size int) uint64 {
	var v uint64
	for i := 0; i < size; i++ {
		a := off + uint64(i)
		if a < CtrlBytes {
			v |= uint64(s.regs[a]) << (8 * uint(i))
		}
	}
	return v
}

func (s *SPM) writeReg(off uint64, size int, val uint64) {
	for i := 0; i < size; i++ {
		a := off + uint64(i)
		if a < CtrlBytes {
			s.regs[a] = byte(val >> (8 * uint(i)))
		}
	}
}

// DMARequest describes a programmed transfer read from the registers.
type DMARequest struct {
	Src, Dst uint64 // global addresses
	Len      uint64
}

// TakeDMAKick checks whether software started a DMA (wrote 1 to RegDMACtl).
// If so it consumes the kick, marks the engine busy, and returns the
// programmed transfer.
func (s *SPM) TakeDMAKick() (DMARequest, bool) {
	if s.readReg(RegDMACtl, 8) != 1 {
		return DMARequest{}, false
	}
	req := DMARequest{
		Src: s.readReg(RegDMASrc, 8),
		Dst: s.readReg(RegDMADst, 8),
		Len: s.readReg(RegDMALen, 8),
	}
	s.writeReg(RegDMACtl, 8, 2) // busy
	return req, true
}

// DMABusy reports whether a transfer is in progress.
func (s *SPM) DMABusy() bool { return s.readReg(RegDMACtl, 8) == 2 }

// CompleteDMA marks the current transfer done and bumps the completion
// counter.
func (s *SPM) CompleteDMA() {
	s.writeReg(RegDMACtl, 8, 0)
	s.writeReg(RegDMADoneCt, 8, s.readReg(RegDMADoneCt, 8)+1)
}

// String identifies the SPM for diagnostics.
func (s *SPM) String() string { return fmt.Sprintf("spm[core%d]", s.Core) }
