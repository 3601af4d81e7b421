package cpu

import (
	"fmt"
	"testing"

	"smarco/internal/isa"
	"smarco/internal/kernels"
	"smarco/internal/mem"
	"smarco/internal/sim"
)

// genProgram builds a random but always-terminating program: ALU ops over
// scratch registers, loads/stores within a private window, and forward-only
// branches, ending with stores of sampled registers for comparison and a
// HALT. a0 = data window, a1 = output window.
func genProgram(rng *sim.RNG, length int) *isa.Program {
	aluOps := []isa.Opcode{
		isa.ADD, isa.SUB, isa.MUL, isa.AND, isa.OR, isa.XOR,
		isa.SLL, isa.SRL, isa.SRA, isa.SLT, isa.SLTU,
	}
	immOps := []isa.Opcode{isa.ADDI, isa.ANDI, isa.ORI, isa.XORI, isa.SLTI}
	loads := []isa.Opcode{isa.LB, isa.LBU, isa.LH, isa.LHU, isa.LW, isa.LWU, isa.LD}
	stores := []isa.Opcode{isa.SB, isa.SH, isa.SW, isa.SD}
	branches := []isa.Opcode{isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU}
	// Scratch registers: t0-t6, s2-s11 (never a0/a1).
	scratch := []uint8{5, 6, 7, 28, 29, 30, 31, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27}
	reg := func() uint8 { return scratch[rng.Intn(len(scratch))] }

	var insts []isa.Inst
	for len(insts) < length {
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			insts = append(insts, isa.Inst{Op: aluOps[rng.Intn(len(aluOps))], Rd: reg(), Rs1: reg(), Rs2: reg()})
		case 4, 5:
			insts = append(insts, isa.Inst{Op: immOps[rng.Intn(len(immOps))], Rd: reg(), Rs1: reg(), Imm: int64(rng.Intn(2048)) - 1024})
		case 6:
			// Aligned load within the 256-byte data window (off a0 = r10).
			op := loads[rng.Intn(len(loads))]
			sz := op.AccessSize()
			off := int64(rng.Intn(256/sz)) * int64(sz)
			insts = append(insts, isa.Inst{Op: op, Rd: reg(), Rs1: 10, Imm: off})
		case 7:
			op := stores[rng.Intn(len(stores))]
			sz := op.AccessSize()
			off := int64(rng.Intn(256/sz)) * int64(sz)
			insts = append(insts, isa.Inst{Op: op, Rs1: 10, Rs2: reg(), Imm: off})
		case 8:
			// Forward branch skipping 1-3 instructions (always terminates).
			target := len(insts) + 2 + rng.Intn(3)
			insts = append(insts, isa.Inst{Op: branches[rng.Intn(len(branches))], Rs1: reg(), Rs2: reg(), Imm: int64(target)})
		case 9:
			insts = append(insts, isa.Inst{Op: isa.LI, Rd: reg(), Imm: int64(rng.Uint64())})
		}
	}
	// Patch branches whose target ran past the end.
	for i := range insts {
		if insts[i].Op.IsBranch() && insts[i].Imm > int64(length) {
			insts[i].Imm = int64(length)
		}
	}
	// Epilogue: dump scratch registers to the output window.
	for i, r := range scratch {
		insts = append(insts, isa.Inst{Op: isa.SD, Rs1: 11, Rs2: r, Imm: int64(i * 8)})
	}
	insts = append(insts, isa.Inst{Op: isa.HALT})
	return &isa.Program{Name: "fuzz", Insts: insts, Labels: map[string]int{}}
}

// crossCheck runs prog on both the functional machine and the cycle-level
// core (through the full NoC/DRAM stack) with the same initial memory image
// and requires identical memory outcomes in both the output window (nOut
// bytes) and the 256-byte data window, and identical instruction and
// memory-op counts.
func crossCheck(t testing.TB, label string, prog *isa.Program, initial []byte, nOut, budget int) {
	t.Helper()
	const dataBase, outBase = 0x8000, 0x9000

	// Golden run.
	gold := mem.NewSparse()
	gold.WriteBytes(dataBase, initial)
	gm := isa.NewMachine(gold)
	gm.Regs.Set(10, dataBase)
	gm.Regs.Set(11, outBase)
	if err := gm.Run(prog, 2_000_000); err != nil {
		t.Fatalf("%s: golden: %v", label, err)
	}

	// Cycle-level run with the same initial image.
	r := newRig(t, 1, testCfg())
	r.store.WriteBytes(dataBase, initial)
	assign(r, 0, Work{TaskID: 1, Prog: prog, CodeBase: codeBase,
		Args: [8]int64{dataBase, outBase}})
	r.runUntilDone(t, 1, budget)

	// A store-buffer stall re-executes the instruction; only the attempt
	// that executes counts.
	if s := &r.cores[0].Stats; s.Issued.Value() != gm.Executed || s.MemOps.Value() != gm.MemOps {
		t.Fatalf("%s: core issued %d instructions with %d memory ops; the functional machine executed %d with %d",
			label, s.Issued.Value(), s.MemOps.Value(), gm.Executed, gm.MemOps)
	}
	for i := 0; i < nOut; i++ {
		if got, want := r.store.ByteAt(outBase+uint64(i)), gold.ByteAt(outBase+uint64(i)); got != want {
			t.Fatalf("%s: output byte %d differs: %#x vs %#x", label, i, got, want)
		}
	}
	for i := 0; i < 256; i++ {
		if got, want := r.store.ByteAt(dataBase+uint64(i)), gold.ByteAt(dataBase+uint64(i)); got != want {
			t.Fatalf("%s: data byte %d differs: %#x vs %#x", label, i, got, want)
		}
	}
}

func randomWindow(rng *sim.RNG) []byte {
	initial := make([]byte, 256)
	for i := range initial {
		initial[i] = byte(rng.Uint64())
	}
	return initial
}

// TestCoreMatchesGoldenInterpreter runs random programs on both the
// functional machine and the cycle-level core and requires identical memory
// outcomes.
func TestCoreMatchesGoldenInterpreter(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		rng := sim.NewRNG(seed * 77)
		prog := genProgram(rng, 60+rng.Intn(120))
		crossCheck(t, fmt.Sprintf("seed %d", seed), prog, randomWindow(rng), 17*8, 400_000)
	}
}

// ccScratch are the registers random programs may freely clobber (never
// a0/a1, never the loop counters r9/r4). ccDump is everything the shared
// epilogue writes out for comparison.
var ccScratch = []uint8{5, 6, 7, 28, 29, 30, 31, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27}

var ccDump = append(append([]uint8{}, ccScratch...), 9, 4)

// ccEpilogue dumps every observable register to the output window and halts.
func ccEpilogue(insts []isa.Inst) []isa.Inst {
	for i, r := range ccDump {
		insts = append(insts, isa.Inst{Op: isa.SD, Rs1: 11, Rs2: r, Imm: int64(i * 8)})
	}
	return append(insts, isa.Inst{Op: isa.HALT})
}

// genFPProgram generates floating-point-heavy programs: arithmetic (incl.
// FDIV, so Inf/NaN bit patterns flow through), comparisons, conversions in
// both directions, and FP spills through the memory system.
func genFPProgram(rng *sim.RNG, length int) *isa.Program {
	fpArith := []isa.Opcode{isa.FADD, isa.FSUB, isa.FMUL, isa.FDIV, isa.FMIN, isa.FMAX}
	fpCmp := []isa.Opcode{isa.FLT, isa.FLE, isa.FEQ}
	reg := func() uint8 { return ccScratch[rng.Intn(len(ccScratch))] }

	var insts []isa.Inst
	for i, r := range ccScratch {
		insts = append(insts, isa.Inst{Op: isa.LI, Rd: r, Imm: int64(rng.Intn(4096)) - 2048})
		if i%2 == 0 {
			insts = append(insts, isa.Inst{Op: isa.FCVTDL, Rd: r, Rs1: r})
		}
	}
	for len(insts) < length {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4:
			insts = append(insts, isa.Inst{Op: fpArith[rng.Intn(len(fpArith))], Rd: reg(), Rs1: reg(), Rs2: reg()})
		case 5, 6:
			insts = append(insts, isa.Inst{Op: fpCmp[rng.Intn(len(fpCmp))], Rd: reg(), Rs1: reg(), Rs2: reg()})
		case 7:
			insts = append(insts, isa.Inst{Op: isa.FCVTDL, Rd: reg(), Rs1: reg()})
		case 8:
			insts = append(insts, isa.Inst{Op: isa.FCVTLD, Rd: reg(), Rs1: reg()})
		case 9:
			// Spill/reload a float through the data window so raw FP bit
			// patterns traverse the store buffer and DRAM path.
			off := int64(rng.Intn(32)) * 8
			insts = append(insts,
				isa.Inst{Op: isa.SD, Rs1: 10, Rs2: reg(), Imm: off},
				isa.Inst{Op: isa.LD, Rd: reg(), Rs1: 10, Imm: off})
		}
	}
	return &isa.Program{Name: "fp", Insts: ccEpilogue(insts), Labels: map[string]int{}}
}

// TestCrossCheckFPOps: floating-point semantics of the cycle-level core
// (multi-cycle FP latencies, FP values through the memory system) must match
// the functional machine bit-for-bit.
func TestCrossCheckFPOps(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := sim.NewRNG(seed*991 + 5)
		prog := genFPProgram(rng, 60+rng.Intn(100))
		crossCheck(t, fmt.Sprintf("fp seed %d", seed), prog, randomWindow(rng), len(ccDump)*8, 400_000)
	}
}

// genLoopProgram emits sequential and occasionally nested backward loops,
// each bounded by a dedicated down-counter (r9, r4 for the inner level) that
// the loop body can never clobber.
func genLoopProgram(rng *sim.RNG, nLoops int) *isa.Program {
	const ctr, ctr2 = 9, 4
	aluOps := []isa.Opcode{isa.ADD, isa.SUB, isa.XOR, isa.AND, isa.OR, isa.MUL}
	reg := func() uint8 { return ccScratch[rng.Intn(len(ccScratch))] }
	var insts []isa.Inst
	emitBody := func() {
		switch rng.Intn(4) {
		case 0:
			insts = append(insts, isa.Inst{Op: aluOps[rng.Intn(len(aluOps))], Rd: reg(), Rs1: reg(), Rs2: reg()})
		case 1:
			insts = append(insts, isa.Inst{Op: isa.ADDI, Rd: reg(), Rs1: reg(), Imm: int64(rng.Intn(64)) - 32})
		case 2:
			insts = append(insts, isa.Inst{Op: isa.LD, Rd: reg(), Rs1: 10, Imm: int64(rng.Intn(32)) * 8})
		case 3:
			insts = append(insts, isa.Inst{Op: isa.SD, Rs1: 10, Rs2: reg(), Imm: int64(rng.Intn(32)) * 8})
		}
	}
	// close emits the decrement-and-branch-back tail for counter c.
	close := func(c uint8, start int) {
		insts = append(insts,
			isa.Inst{Op: isa.ADDI, Rd: c, Rs1: c, Imm: -1},
			isa.Inst{Op: isa.BLT, Rs1: 0, Rs2: c, Imm: int64(start)})
	}
	for l := 0; l < nLoops; l++ {
		if rng.Intn(3) == 0 {
			// Nested pair: the inner counter re-initializes every outer trip.
			insts = append(insts, isa.Inst{Op: isa.LI, Rd: ctr, Imm: int64(1 + rng.Intn(4))})
			outer := len(insts)
			emitBody()
			insts = append(insts, isa.Inst{Op: isa.LI, Rd: ctr2, Imm: int64(1 + rng.Intn(4))})
			inner := len(insts)
			emitBody()
			close(ctr2, inner)
			close(ctr, outer)
		} else {
			insts = append(insts, isa.Inst{Op: isa.LI, Rd: ctr, Imm: int64(1 + rng.Intn(8))})
			start := len(insts)
			for b := 1 + rng.Intn(3); b > 0; b-- {
				emitBody()
			}
			close(ctr, start)
		}
	}
	return &isa.Program{Name: "loops", Insts: ccEpilogue(insts), Labels: map[string]int{}}
}

// TestCrossCheckBackwardLoops: backward branches exercise the taken-branch
// predictor path and repeated memory traffic; outcomes must match the
// functional machine.
func TestCrossCheckBackwardLoops(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := sim.NewRNG(seed*313 + 11)
		prog := genLoopProgram(rng, 3+rng.Intn(5))
		crossCheck(t, fmt.Sprintf("loop seed %d", seed), prog, randomWindow(rng), len(ccDump)*8, 600_000)
	}
}

// genUnalignedProgram stresses arbitrary-alignment accesses and
// adjacent-overlap store/load pairs, the store buffer's partial-overlap
// forwarding and drain logic in particular.
func genUnalignedProgram(rng *sim.RNG, length int) *isa.Program {
	loads := []isa.Opcode{isa.LB, isa.LBU, isa.LH, isa.LHU, isa.LW, isa.LWU, isa.LD}
	stores := []isa.Opcode{isa.SB, isa.SH, isa.SW, isa.SD}
	reg := func() uint8 { return ccScratch[rng.Intn(len(ccScratch))] }
	var insts []isa.Inst
	for _, r := range ccScratch[:6] {
		insts = append(insts, isa.Inst{Op: isa.LI, Rd: r, Imm: int64(rng.Uint64())})
	}
	for len(insts) < length {
		switch rng.Intn(6) {
		case 0:
			op := loads[rng.Intn(len(loads))]
			off := int64(rng.Intn(257 - op.AccessSize()))
			insts = append(insts, isa.Inst{Op: op, Rd: reg(), Rs1: 10, Imm: off})
		case 1:
			op := stores[rng.Intn(len(stores))]
			off := int64(rng.Intn(257 - op.AccessSize()))
			insts = append(insts, isa.Inst{Op: op, Rs1: 10, Rs2: reg(), Imm: off})
		case 2:
			// Wide store, then an overlapping narrower load shifted by 1-7
			// bytes: must forward or stall, never read stale bytes.
			off := int64(rng.Intn(241))
			op := loads[rng.Intn(len(loads))]
			delta := int64(1 + rng.Intn(7))
			if off+delta+int64(op.AccessSize()) > 256 {
				delta = 256 - off - int64(op.AccessSize())
			}
			insts = append(insts,
				isa.Inst{Op: isa.SD, Rs1: 10, Rs2: reg(), Imm: off},
				isa.Inst{Op: op, Rd: reg(), Rs1: 10, Imm: off + delta})
		case 3:
			// Narrow store inside a region, then a wide load over it: the
			// load must observe the merged bytes.
			off := int64(rng.Intn(246))
			op := stores[rng.Intn(2)] // SB or SH
			delta := int64(rng.Intn(7))
			insts = append(insts,
				isa.Inst{Op: op, Rs1: 10, Rs2: reg(), Imm: off + delta},
				isa.Inst{Op: isa.LD, Rd: reg(), Rs1: 10, Imm: off})
		case 4:
			insts = append(insts, isa.Inst{Op: isa.XOR, Rd: reg(), Rs1: reg(), Rs2: reg()})
		case 5:
			insts = append(insts, isa.Inst{Op: isa.LI, Rd: reg(), Imm: int64(rng.Uint64())})
		}
	}
	return &isa.Program{Name: "unaligned", Insts: ccEpilogue(insts), Labels: map[string]int{}}
}

// TestCrossCheckUnalignedAdjacent: unaligned and adjacent-overlapping
// accesses must produce the same memory image as the functional machine.
func TestCrossCheckUnalignedAdjacent(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := sim.NewRNG(seed*577 + 3)
		prog := genUnalignedProgram(rng, 50+rng.Intn(80))
		crossCheck(t, fmt.Sprintf("unaligned seed %d", seed), prog, randomWindow(rng), len(ccDump)*8, 600_000)
	}
}

// buildProgram decodes fuzz input into an always-terminating program. The
// stream is framed as 4-byte groups (category + 3 operand bytes); unknown
// or truncated input degrades to NOPs, never to non-termination: branches
// are forward-only except the bounded down-counter loop construct.
func buildProgram(data []byte) *isa.Program {
	if len(data) > 2048 {
		data = data[:2048]
	}
	aluOps := []isa.Opcode{
		isa.ADD, isa.SUB, isa.MUL, isa.DIV, isa.REM, isa.AND, isa.OR, isa.XOR,
		isa.SLL, isa.SRL, isa.SRA, isa.SLT, isa.SLTU,
	}
	immOps := []isa.Opcode{
		isa.ADDI, isa.ANDI, isa.ORI, isa.XORI, isa.SLLI, isa.SRLI, isa.SRAI, isa.SLTI,
	}
	loads := []isa.Opcode{isa.LB, isa.LBU, isa.LH, isa.LHU, isa.LW, isa.LWU, isa.LD}
	stores := []isa.Opcode{isa.SB, isa.SH, isa.SW, isa.SD}
	branches := []isa.Opcode{isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU}
	fpArith := []isa.Opcode{isa.FADD, isa.FSUB, isa.FMUL, isa.FDIV, isa.FMIN, isa.FMAX}
	fpMisc := []isa.Opcode{isa.FLT, isa.FLE, isa.FEQ, isa.FCVTDL, isa.FCVTLD}

	pos := 0
	next := func() byte {
		if pos < len(data) {
			b := data[pos]
			pos++
			return b
		}
		return 0
	}
	reg := func(b byte) uint8 { return ccScratch[int(b)%len(ccScratch)] }

	var insts []isa.Inst
	for pos < len(data) && len(insts) < 600 {
		c := next() % 14
		a, b, d := next(), next(), next()
		switch c {
		case 0, 1:
			insts = append(insts, isa.Inst{Op: aluOps[int(a)%len(aluOps)], Rd: reg(b), Rs1: reg(d), Rs2: reg(a >> 3)})
		case 2:
			insts = append(insts, isa.Inst{Op: immOps[int(a)%len(immOps)], Rd: reg(b), Rs1: reg(d >> 2), Imm: int64(d) - 128})
		case 3:
			insts = append(insts, isa.Inst{Op: isa.LI, Rd: reg(b), Imm: int64(int16(uint16(a)<<8 | uint16(d)))})
		case 4:
			op := loads[int(a)%len(loads)]
			sz := int64(op.AccessSize())
			insts = append(insts, isa.Inst{Op: op, Rd: reg(b), Rs1: 10, Imm: (int64(d) % (256 / sz)) * sz})
		case 5:
			op := stores[int(a)%len(stores)]
			sz := int64(op.AccessSize())
			insts = append(insts, isa.Inst{Op: op, Rs1: 10, Rs2: reg(b), Imm: (int64(d) % (256 / sz)) * sz})
		case 6:
			op := loads[int(a)%len(loads)]
			insts = append(insts, isa.Inst{Op: op, Rd: reg(b), Rs1: 10, Imm: int64(int(d) % (257 - op.AccessSize()))})
		case 7:
			op := stores[int(a)%len(stores)]
			insts = append(insts, isa.Inst{Op: op, Rs1: 10, Rs2: reg(b), Imm: int64(int(d) % (257 - op.AccessSize()))})
		case 8:
			off := int64(int(d) % 241)
			op := loads[int(a)%len(loads)]
			delta := int64(1 + int(b)%7)
			if off+delta+int64(op.AccessSize()) > 256 {
				delta = 256 - off - int64(op.AccessSize())
			}
			insts = append(insts,
				isa.Inst{Op: isa.SD, Rs1: 10, Rs2: reg(b), Imm: off},
				isa.Inst{Op: op, Rd: reg(a), Rs1: 10, Imm: off + delta})
		case 9:
			insts = append(insts, isa.Inst{Op: branches[int(a)%len(branches)], Rs1: reg(b), Rs2: reg(d),
				Imm: int64(len(insts) + 2 + int(a)%3)})
		case 10:
			insts = append(insts, isa.Inst{Op: fpArith[int(a)%len(fpArith)], Rd: reg(b), Rs1: reg(d), Rs2: reg(a >> 3)})
		case 11:
			op := fpMisc[int(a)%len(fpMisc)]
			insts = append(insts, isa.Inst{Op: op, Rd: reg(b), Rs1: reg(d), Rs2: reg(a >> 3)})
		case 12:
			// Bounded backward loop over the dedicated counter r9.
			insts = append(insts, isa.Inst{Op: isa.LI, Rd: 9, Imm: int64(1 + int(b)%8)})
			start := len(insts)
			insts = append(insts,
				isa.Inst{Op: aluOps[int(a)%len(aluOps)], Rd: reg(d), Rs1: reg(d), Rs2: reg(a)},
				isa.Inst{Op: isa.ADDI, Rd: 9, Rs1: 9, Imm: -1},
				isa.Inst{Op: isa.BLT, Rs1: 0, Rs2: 9, Imm: int64(start)})
		case 13:
			insts = append(insts, isa.Inst{Op: isa.JAL, Rd: reg(b), Imm: int64(len(insts) + 2 + int(a)%3)})
		}
	}
	// Clamp forward targets that ran past the end to the epilogue start.
	bodyLen := int64(len(insts))
	for i := range insts {
		fwd := insts[i].Op.IsBranch() || insts[i].Op == isa.JAL
		if fwd && insts[i].Imm > int64(i) && insts[i].Imm > bodyLen {
			insts[i].Imm = bodyLen
		}
	}
	return &isa.Program{Name: "fuzz", Insts: ccEpilogue(insts), Labels: map[string]int{}}
}

// kernelMix re-encodes a kernel program's instruction stream into
// buildProgram's framing, seeding the fuzzer with the six benchmarks'
// real opcode mixes (category, op-variant, dest, source/offset per inst).
func kernelMix(p *isa.Program) []byte {
	out := make([]byte, 0, len(p.Insts)*4)
	for i, in := range p.Insts {
		var c byte
		switch {
		case in.Op == isa.LI:
			c = 3
		case in.Op == isa.FCVTDL, in.Op == isa.FCVTLD, in.Op == isa.FLT, in.Op == isa.FLE, in.Op == isa.FEQ:
			c = 11
		case in.Op.IsFP():
			c = 10
		case in.Op.IsLoad():
			c = 4
			if in.Imm%8 != 0 {
				c = 6
			}
		case in.Op.IsStore():
			c = 5
			if in.Imm%8 != 0 {
				c = 7
			}
		case in.Op.IsBranch():
			c = 9
			if in.Imm <= int64(i) {
				c = 12 // backward: map to the bounded-loop construct
			}
		case in.Op == isa.JAL, in.Op == isa.JALR:
			c = 13
		case in.Op.Fmt() == isa.FmtI:
			c = 2
		default:
			c = 0
		}
		out = append(out, c, byte(in.Op), byte(in.Rd), byte(in.Imm))
	}
	return out
}

// FuzzCrossCheck is the native fuzz target: any input decodes to a bounded
// program that must behave identically on the functional machine and the
// cycle-level core.
func FuzzCrossCheck(f *testing.F) {
	for _, name := range kernels.Names {
		w := kernels.MustNew(name, kernels.Config{Seed: 1, Tasks: 2})
		seen := map[*isa.Program]bool{}
		for _, task := range w.Tasks {
			if seen[task.Prog] {
				continue
			}
			seen[task.Prog] = true
			f.Add(kernelMix(task.Prog))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		prog := buildProgram(data)
		initial := make([]byte, 256)
		for i := range initial {
			b := byte(0x5A)
			if len(data) > 0 {
				b = data[i%len(data)]
			}
			initial[i] = b ^ byte(i*7)
		}
		crossCheck(t, "fuzz", prog, initial, len(ccDump)*8, 2_000_000)
	})
}
