package isa

// Class is the static class bitmask of a decoded instruction: the facts the
// out-of-order core tests on every pipeline touch, folded into one byte.
type Class uint8

// Class bits.
const (
	ClassLoad   Class = 1 << iota // reads data memory
	ClassStore                    // writes data memory (including TST)
	ClassCtrl                     // conditional branch or JR: resolved against its prediction at completion
	ClassMarker                   // executes nothing: completes the cycle after dispatch
	ClassDest                     // writes a destination register (never integer r0)
	ClassFPDest                   // the op's destination is in the FP file

	ClassMem = ClassLoad | ClassStore
)

// Source-operand bits (Decoded.Src).
const (
	SrcUse1 uint8 = 1 << iota // reads Rs1
	SrcUse2                   // reads Rs2
	SrcFP1                    // Rs1 is in the FP file
	SrcFP2                    // Rs2 is in the FP file
)

// Decoded is the static decode of one instruction: the instruction's
// fields plus everything about it that does not depend on run-time values,
// packed into 16 bytes.
type Decoded struct {
	Op           Op
	Rd, Rs1, Rs2 uint8
	Class        Class
	Src          uint8 // Src* bits; the registers are Rs1 and Rs2
	FU           FUClass
	Lat          uint8 // execute latency; 0 for memory ops (see Op.Latency)
	Imm          int64
}

// Inst returns the decoded instruction.
func (d *Decoded) Inst() Inst {
	return Inst{Op: d.Op, Rd: d.Rd, Rs1: d.Rs1, Rs2: d.Rs2, Imm: d.Imm}
}

// PredecodeInst derives the static decode of one instruction from opTable.
func PredecodeInst(in Inst) Decoded {
	info := &opTable[in.Op]
	d := Decoded{Op: in.Op, Rd: in.Rd, Rs1: in.Rs1, Rs2: in.Rs2, Imm: in.Imm,
		Src: info.src, FU: info.fu, Lat: uint8(info.lat)}
	if info.isLoad {
		d.Class |= ClassLoad
	}
	if info.isStore {
		d.Class |= ClassStore
	}
	if info.isBr || in.Op == JR {
		d.Class |= ClassCtrl
	}
	if info.fu == FUNone {
		d.Class |= ClassMarker
	}
	if info.fpRd {
		d.Class |= ClassFPDest
	}
	// Integer destination register 0 is hardwired to zero: no dest.
	if info.dest && (info.fpRd || in.Rd != 0) {
		d.Class |= ClassDest
	}
	return d
}

// Code is a program's static decode, one Decoded per instruction. It is
// read-only once built, so one Code is shared by every core simulating the
// program.
type Code struct {
	Prog  *Program
	insts []Decoded
	halt  Decoded
}

// Predecode builds the static decode of p.
func Predecode(p *Program) *Code {
	c := &Code{Prog: p, insts: make([]Decoded, len(p.Insts)), halt: PredecodeInst(Inst{Op: HALT})}
	for i, in := range p.Insts {
		c.insts[i] = PredecodeInst(in)
	}
	return c
}

// At returns the decode of the instruction at pc; like Program.At, an
// off-program pc decodes as HALT.
func (c *Code) At(pc int) *Decoded {
	if uint(pc) < uint(len(c.insts)) {
		return &c.insts[pc]
	}
	return &c.halt
}
