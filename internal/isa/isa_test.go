package isa

import (
	"math"
	"testing"
	"testing/quick"
)

func TestOpStringsUnique(t *testing.T) {
	seen := make(map[string]Op)
	for op := Op(0); op < Op(NumOps); op++ {
		name := op.String()
		if name == "" {
			t.Fatalf("op %d has empty name", op)
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("ops %v and %v share mnemonic %q", prev, op, name)
		}
		seen[name] = op
	}
}

func TestOpClassConsistency(t *testing.T) {
	for op := Op(0); op < Op(NumOps); op++ {
		if op.IsLoad() && op.IsStore() {
			t.Errorf("%v is both load and store", op)
		}
		if op.IsMem() && op.FU() != FUMem {
			t.Errorf("%v is memory op but FU class is %v", op, op.FU())
		}
		if op.IsBranch() && op.IsJump() {
			t.Errorf("%v is both branch and jump", op)
		}
		if !op.IsMem() && op.Latency() <= 0 {
			t.Errorf("%v has non-positive latency %d", op, op.Latency())
		}
	}
}

func TestHasDest(t *testing.T) {
	cases := []struct {
		in   Inst
		want bool
	}{
		{Inst{Op: ADD, Rd: 1}, true},
		{Inst{Op: ADD, Rd: 0}, false}, // r0 hardwired to zero
		{Inst{Op: FADD, Rd: 0}, true}, // f0 is a real register
		{Inst{Op: ST, Rd: 5}, false},
		{Inst{Op: BEQ, Rd: 5}, false},
		{Inst{Op: LD, Rd: 3}, true},
		{Inst{Op: JAL, Rd: 31}, true},
		{Inst{Op: FORK}, false},
		{Inst{Op: TST, Rd: 2}, false},
		{Inst{Op: TSA}, false},
	}
	for _, c := range cases {
		if got := PredecodeInst(c.in).Class&ClassDest != 0; got != c.want {
			t.Errorf("%v has dest = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSrcRegs(t *testing.T) {
	// ST: rs1 is the integer address base, rs2 the integer data.
	if d := PredecodeInst(Inst{Op: ST, Rs1: 4, Rs2: 7}); d.Src != SrcUse1|SrcUse2 || d.Rs1 != 4 || d.Rs2 != 7 {
		t.Errorf("ST sources = %04b r%d r%d", d.Src, d.Rs1, d.Rs2)
	}
	// FST: address integer, data FP.
	if d := PredecodeInst(Inst{Op: FST, Rs1: 4, Rs2: 7}); d.Src&SrcFP1 != 0 || d.Src&SrcFP2 == 0 {
		t.Errorf("FST source files = %04b, want int address, FP data", d.Src)
	}
	// LI has no sources.
	if d := PredecodeInst(Inst{Op: LI, Rd: 1, Imm: 9}); d.Src&(SrcUse1|SrcUse2) != 0 {
		t.Error("LI should have no sources")
	}
	// FADD reads two FP sources.
	if d := PredecodeInst(Inst{Op: FADD, Rs1: 1, Rs2: 2}); d.Src != SrcUse1|SrcUse2|SrcFP1|SrcFP2 {
		t.Error("FADD should read two FP sources")
	}
}

// refHasDest and refSrcRegs are the per-op switches the static decode
// replaced, kept here as its reference.
func refHasDest(in Inst) bool {
	switch in.Op {
	case NOP, HALT, ST, FST, TST, BEQ, BNE, BLT, BGE, BLTU, BGEU, JMP, JR,
		BEGIN, FORK, TSAGD, TSA, THEND, ABORT:
		return false
	}
	if !in.Op.FPDest() && in.Rd == 0 {
		return false
	}
	return true
}

func refSrcRegs(in Inst) (r1, r2 uint8, use1, use2, fp1, fp2 bool) {
	switch in.Op {
	case NOP, HALT, LI, FLI, JMP, JAL, BEGIN, TSAGD, THEND, ABORT, FORK:
		return 0, 0, false, false, false, false
	case ADDI, ANDI, ORI, XORI, SLLI, SRLI, SRAI, SLTI:
		return in.Rs1, 0, true, false, false, false
	case I2F:
		return in.Rs1, 0, true, false, false, false
	case F2I, FNEG, FABS:
		return in.Rs1, 0, true, false, true, false
	case LD, FLD:
		return in.Rs1, 0, true, false, false, false
	case ST:
		return in.Rs1, in.Rs2, true, true, false, false
	case FST:
		return in.Rs1, in.Rs2, true, true, false, true
	case TST:
		return in.Rs1, in.Rs2, true, true, false, false
	case TSA:
		return in.Rs1, 0, true, false, false, false
	case JR:
		return in.Rs1, 0, true, false, false, false
	case FLT, FLE:
		return in.Rs1, in.Rs2, true, true, true, true
	}
	fp := in.Op.FPSrc()
	return in.Rs1, in.Rs2, true, true, fp, fp
}

// TestPredecodeMatchesReference checks every opcode's static decode, with
// Rd zero and nonzero, against the reference switches and the Op
// predicates.
func TestPredecodeMatchesReference(t *testing.T) {
	for op := Op(0); op < Op(NumOps); op++ {
		for _, rd := range []uint8{0, 5} {
			in := Inst{Op: op, Rd: rd, Rs1: 3, Rs2: 9, Imm: 17}
			d := PredecodeInst(in)
			if d.Inst() != in {
				t.Errorf("%v: decoded inst %v", in, d.Inst())
			}
			r1, r2, u1, u2, f1, f2 := refSrcRegs(in)
			if got := d.Src&SrcUse1 != 0; got != u1 {
				t.Errorf("%v: use1 = %v, want %v", in, got, u1)
			}
			if got := d.Src&SrcUse2 != 0; got != u2 {
				t.Errorf("%v: use2 = %v, want %v", in, got, u2)
			}
			if u1 && (d.Rs1 != r1 || d.Src&SrcFP1 != 0 != f1) {
				t.Errorf("%v: src1 r%d fp=%v, want r%d fp=%v", in, d.Rs1, d.Src&SrcFP1 != 0, r1, f1)
			}
			if u2 && (d.Rs2 != r2 || d.Src&SrcFP2 != 0 != f2) {
				t.Errorf("%v: src2 r%d fp=%v, want r%d fp=%v", in, d.Rs2, d.Src&SrcFP2 != 0, r2, f2)
			}
			if !u1 && d.Src&SrcFP1 != 0 || !u2 && d.Src&SrcFP2 != 0 {
				t.Errorf("%v: FP bit on an unused source: %04b", in, d.Src)
			}
			checks := []struct {
				name      string
				got, want bool
			}{
				{"dest", d.Class&ClassDest != 0, refHasDest(in)},
				{"fp dest", d.Class&ClassFPDest != 0, op.FPDest()},
				{"load", d.Class&ClassLoad != 0, op.IsLoad()},
				{"store", d.Class&ClassStore != 0, op.IsStore()},
				{"ctrl", d.Class&ClassCtrl != 0, op.IsBranch() || op == JR},
				{"marker", d.Class&ClassMarker != 0, op.FU() == FUNone},
			}
			for _, c := range checks {
				if c.got != c.want {
					t.Errorf("%v: %s = %v, want %v", in, c.name, c.got, c.want)
				}
			}
			if d.FU != op.FU() || int(d.Lat) != op.Latency() {
				t.Errorf("%v: FU %v lat %d, want %v %d", in, d.FU, d.Lat, op.FU(), op.Latency())
			}
		}
	}
}

func TestCodeAtOffProgramIsHalt(t *testing.T) {
	p := &Program{Insts: []Inst{{Op: ADDI, Rd: 1, Rs1: 0, Imm: 1}, {Op: LD, Rd: 2, Rs1: 1}}}
	c := Predecode(p)
	for pc, in := range p.Insts {
		if got := c.At(pc); *got != PredecodeInst(in) {
			t.Errorf("At(%d) = %+v, want %+v", pc, *got, PredecodeInst(in))
		}
	}
	for _, pc := range []int{-1, len(p.Insts), 1 << 20} {
		if got := c.At(pc); got.Op != p.At(pc).Op || got.Class != ClassMarker {
			t.Errorf("At(%d) = %+v, want HALT marker", pc, *got)
		}
	}
}

func TestEvalIntegerOps(t *testing.T) {
	cases := []struct {
		in     Inst
		s1, s2 int64
		want   int64
	}{
		{Inst{Op: ADD}, 2, 3, 5},
		{Inst{Op: SUB}, 2, 3, -1},
		{Inst{Op: MUL}, -4, 3, -12},
		{Inst{Op: DIV}, 7, 2, 3},
		{Inst{Op: DIV}, 7, 0, 0}, // defined: no trap, result 0
		{Inst{Op: REM}, 7, 3, 1},
		{Inst{Op: REM}, 7, 0, 0},
		{Inst{Op: AND}, 0b1100, 0b1010, 0b1000},
		{Inst{Op: OR}, 0b1100, 0b1010, 0b1110},
		{Inst{Op: XOR}, 0b1100, 0b1010, 0b0110},
		{Inst{Op: SLL}, 1, 4, 16},
		{Inst{Op: SRL}, -1, 60, 15},
		{Inst{Op: SRA}, -16, 2, -4},
		{Inst{Op: SLT}, -1, 0, 1},
		{Inst{Op: SLTU}, -1, 0, 0},
		{Inst{Op: ADDI, Imm: 10}, 5, 0, 15},
		{Inst{Op: SLTI, Imm: 3}, 2, 0, 1},
		{Inst{Op: LI, Imm: -42}, 0, 0, -42},
		{Inst{Op: SLLI, Imm: 3}, 2, 0, 16},
	}
	for _, c := range cases {
		got, _ := Eval(c.in, c.s1, c.s2, 0, 0)
		if got != c.want {
			t.Errorf("%v Eval(%d,%d) = %d, want %d", c.in.Op, c.s1, c.s2, got, c.want)
		}
	}
}

func TestEvalFPOps(t *testing.T) {
	fcases := []struct {
		op     Op
		f1, f2 float64
		want   float64
	}{
		{FADD, 1.5, 2.25, 3.75},
		{FSUB, 1.5, 2.25, -0.75},
		{FMUL, 1.5, 2.0, 3.0},
		{FDIV, 3.0, 2.0, 1.5},
		{FNEG, 1.5, 0, -1.5},
		{FABS, -1.5, 0, 1.5},
		{FMIN, 1.5, 2.0, 1.5},
		{FMAX, 1.5, 2.0, 2.0},
	}
	for _, c := range fcases {
		_, got := Eval(Inst{Op: c.op}, 0, 0, c.f1, c.f2)
		if got != c.want {
			t.Errorf("%v(%g,%g) = %g, want %g", c.op, c.f1, c.f2, got, c.want)
		}
	}
	if got, _ := Eval(Inst{Op: FLT}, 0, 0, 1.0, 2.0); got != 1 {
		t.Error("FLT(1,2) should be 1")
	}
	if got, _ := Eval(Inst{Op: F2I}, 0, 0, -3.7, 0); got != -3 {
		t.Errorf("F2I(-3.7) = %d, want -3", got)
	}
	if _, got := Eval(Inst{Op: I2F}, 7, 0, 0, 0); got != 7.0 {
		t.Errorf("I2F(7) = %g", got)
	}
	if _, got := Eval(Inst{Op: FLI, Imm: FloatImm(2.5)}, 0, 0, 0, 0); got != 2.5 {
		t.Errorf("FLI roundtrip = %g", got)
	}
}

func TestBranchTaken(t *testing.T) {
	cases := []struct {
		op     Op
		s1, s2 int64
		want   bool
	}{
		{BEQ, 1, 1, true}, {BEQ, 1, 2, false},
		{BNE, 1, 2, true}, {BNE, 1, 1, false},
		{BLT, -1, 0, true}, {BLT, 0, 0, false},
		{BGE, 0, 0, true}, {BGE, -1, 0, false},
		{BLTU, 1, 2, true}, {BLTU, -1, 2, false},
		{BGEU, -1, 2, true}, {BGEU, 1, 2, false},
	}
	for _, c := range cases {
		if got := BranchTaken(Inst{Op: c.op}, c.s1, c.s2); got != c.want {
			t.Errorf("%v(%d,%d) = %v, want %v", c.op, c.s1, c.s2, got, c.want)
		}
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	in := Inst{Op: BLT, Rd: 0, Rs1: 3, Rs2: 17, Imm: -123456789}
	dec, err := Decode(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec != in {
		t.Fatalf("roundtrip: got %+v, want %+v", dec, in)
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	f := func(op uint8, rd, rs1, rs2 uint8, imm int64) bool {
		in := Inst{
			Op:  Op(op % uint8(NumOps)),
			Rd:  rd % NumIntRegs,
			Rs1: rs1 % NumIntRegs,
			Rs2: rs2 % NumIntRegs,
			Imm: imm,
		}
		dec, err := Decode(in.Encode())
		return err == nil && dec == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsBadInput(t *testing.T) {
	var b [InstBytes]byte
	b[0] = byte(NumOps) // invalid opcode
	if _, err := Decode(b); err == nil {
		t.Error("invalid opcode accepted")
	}
	b[0] = byte(ADD)
	b[1] = NumIntRegs // register out of range
	if _, err := Decode(b); err == nil {
		t.Error("register out of range accepted")
	}
	b[1] = 0
	b[5] = 1 // nonzero padding
	if _, err := Decode(b); err == nil {
		t.Error("nonzero padding accepted")
	}
}

func TestEncodeDecodeProgram(t *testing.T) {
	p := &Program{Insts: []Inst{
		{Op: LI, Rd: 1, Imm: 5},
		{Op: ADD, Rd: 2, Rs1: 1, Rs2: 1},
		{Op: HALT},
	}}
	raw := EncodeProgram(p)
	got, err := DecodeProgram(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(p.Insts) {
		t.Fatalf("decoded %d insts, want %d", len(got), len(p.Insts))
	}
	for i := range got {
		if got[i] != p.Insts[i] {
			t.Errorf("inst %d: got %+v want %+v", i, got[i], p.Insts[i])
		}
	}
	if _, err := DecodeProgram(raw[:len(raw)-1]); err == nil {
		t.Error("truncated program accepted")
	}
}

func TestProgramAt(t *testing.T) {
	p := &Program{Insts: []Inst{{Op: NOP}}}
	if p.At(0).Op != NOP {
		t.Error("At(0) wrong")
	}
	if p.At(-1).Op != HALT || p.At(1).Op != HALT {
		t.Error("out-of-range PC should read as HALT")
	}
}

func TestEffAddr(t *testing.T) {
	if got := EffAddr(Inst{Op: LD, Imm: 16}, 100); got != 116 {
		t.Errorf("EffAddr = %d, want 116", got)
	}
	// Negative displacement.
	if got := EffAddr(Inst{Op: LD, Imm: -4}, 100); got != 96 {
		t.Errorf("EffAddr = %d, want 96", got)
	}
}

func TestFloatImmRoundtrip(t *testing.T) {
	f := func(bits uint64) bool {
		v := math.Float64frombits(bits)
		_, got := Eval(Inst{Op: FLI, Imm: FloatImm(v)}, 0, 0, 0, 0)
		return math.Float64bits(got) == math.Float64bits(v) ||
			(math.IsNaN(got) && math.IsNaN(v))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDisassembleForms(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: ADD, Rd: 1, Rs1: 2, Rs2: 3}, "add r1, r2, r3"},
		{Inst{Op: ADDI, Rd: 1, Rs1: 2, Imm: 4}, "addi r1, r2, 4"},
		{Inst{Op: LD, Rd: 1, Rs1: 2, Imm: 8}, "ld r1, 8(r2)"},
		{Inst{Op: ST, Rs1: 2, Rs2: 3, Imm: 8}, "st r3, 8(r2)"},
		{Inst{Op: BEQ, Rs1: 1, Rs2: 2, Imm: 42}, "beq r1, r2, 42"},
		{Inst{Op: JMP, Imm: 7}, "jmp 7"},
		{Inst{Op: FORK, Imm: 3}, "fork 3"},
		{Inst{Op: ABORT}, "abort"},
		{Inst{Op: TSA, Rs1: 5, Imm: 0}, "tsa 0(r5)"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}
