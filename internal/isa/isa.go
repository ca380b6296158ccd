// Package isa defines the instruction set simulated by the superthreaded
// processor model: a small 64-bit RISC ISA extended with the superthreaded
// architecture (STA) thread-pipelining primitives (FORK, ABORT, BEGIN,
// target stores, and stage markers).
//
// Instructions are kept in decoded form (Inst) for simulation speed; a
// fixed-width binary encoding is provided for tooling and tests (see
// encode.go). Branch and jump targets are absolute instruction indices,
// resolved by the assembler. Data addresses are byte addresses into the
// simulated data memory.
package isa

import "fmt"

// Op enumerates every operation in the ISA.
type Op uint8

// Integer, floating-point, control, memory, and STA operations.
const (
	NOP Op = iota
	HALT

	// Integer register-register.
	ADD
	SUB
	MUL
	DIV
	REM
	AND
	OR
	XOR
	SLL
	SRL
	SRA
	SLT
	SLTU

	// Integer register-immediate.
	ADDI
	ANDI
	ORI
	XORI
	SLLI
	SRLI
	SRAI
	SLTI
	LI // rd = imm (full 64-bit immediate)

	// Floating point (operands in the FP register file).
	FADD
	FSUB
	FMUL
	FDIV
	FNEG
	FABS
	FMIN
	FMAX
	FLT // int rd = (frs1 < frs2)
	FLE // int rd = (frs1 <= frs2)
	I2F // frd = float64(rs1)
	F2I // rd = int64(frs1)
	FLI // frd = float64 immediate (bits in Imm)

	// Memory. Effective address = rs1 + imm. LD/ST move 8 bytes between
	// memory and the integer file; FLD/FST move 8 bytes to/from the FP file.
	LD
	ST
	FLD
	FST

	// Control. Targets are absolute instruction indices in Imm.
	BEQ // if rs1 == rs2 goto imm
	BNE
	BLT
	BGE
	BLTU
	BGEU
	JMP // goto imm
	JAL // rd = pc+1; goto imm
	JR  // goto rs1

	// STA thread-pipelining extensions.
	BEGIN // begin a parallel region; Imm = int-register forward mask
	FORK  // fork the next thread unit at Imm; ends the continuation stage
	TSAGD // TSAG stage complete; flag forwarded downstream
	TSA   // announce a target-store address (rs1+imm) downstream
	TST   // target store: mem[rs1+imm] = rs2, forwarded downstream
	THEND // end of iteration body; run the write-back stage, then idle
	ABORT // kill/mark-wrong all successor threads; end the parallel region

	numOps
)

// NumOps reports the number of defined opcodes.
const NumOps = int(numOps)

// NumIntRegs and NumFPRegs size the architectural register files. Integer
// register 0 is hardwired to zero.
const (
	NumIntRegs = 32
	NumFPRegs  = 32
)

// Inst is one decoded instruction.
type Inst struct {
	Op           Op
	Rd, Rs1, Rs2 uint8
	Imm          int64
}

// FUClass identifies the functional-unit pool an operation executes on.
type FUClass uint8

// Functional unit classes, mirroring sim-outorder's resource pools.
const (
	FUNone   FUClass = iota // markers, HALT
	FUIntALU                // 1-cycle integer ops, branches
	FUIntMul                // integer multiply/divide
	FUFPAdd                 // FP add/compare/convert
	FUFPMul                 // FP multiply/divide
	FUMem                   // loads and stores (cache port)
)

// Latency in execute cycles for each non-memory op class.
const (
	LatIntALU = 1
	LatIntMul = 3
	LatIntDiv = 20
	LatFPAdd  = 2
	LatFPMul  = 4
	LatFPDiv  = 12
)

type opInfo struct {
	name    string
	fu      FUClass
	lat     int
	isBr    bool // conditional branch
	isJump  bool // unconditional control transfer
	isLoad  bool
	isStore bool
	dest    bool  // writes Rd (integer r0 excepted; see PredecodeInst)
	fpRd    bool  // destination is in the FP file
	src     uint8 // source operands read: Src* bits
	sta     bool  // STA thread-pipelining primitive
}

// Source forms of the opTable src column.
const (
	srcR  = SrcUse1                             // rs1
	srcRR = SrcUse1 | SrcUse2                   // rs1, rs2
	srcF  = SrcUse1 | SrcFP1                    // frs1
	srcFF = SrcUse1 | SrcUse2 | SrcFP1 | SrcFP2 // frs1, frs2
	srcRF = SrcUse1 | SrcUse2 | SrcFP2          // rs1 (address), frs2 (data)
)

var opTable = [numOps]opInfo{
	NOP:   {name: "nop", fu: FUNone, lat: 1},
	HALT:  {name: "halt", fu: FUNone, lat: 1},
	ADD:   {name: "add", fu: FUIntALU, lat: LatIntALU, dest: true, src: srcRR},
	SUB:   {name: "sub", fu: FUIntALU, lat: LatIntALU, dest: true, src: srcRR},
	MUL:   {name: "mul", fu: FUIntMul, lat: LatIntMul, dest: true, src: srcRR},
	DIV:   {name: "div", fu: FUIntMul, lat: LatIntDiv, dest: true, src: srcRR},
	REM:   {name: "rem", fu: FUIntMul, lat: LatIntDiv, dest: true, src: srcRR},
	AND:   {name: "and", fu: FUIntALU, lat: LatIntALU, dest: true, src: srcRR},
	OR:    {name: "or", fu: FUIntALU, lat: LatIntALU, dest: true, src: srcRR},
	XOR:   {name: "xor", fu: FUIntALU, lat: LatIntALU, dest: true, src: srcRR},
	SLL:   {name: "sll", fu: FUIntALU, lat: LatIntALU, dest: true, src: srcRR},
	SRL:   {name: "srl", fu: FUIntALU, lat: LatIntALU, dest: true, src: srcRR},
	SRA:   {name: "sra", fu: FUIntALU, lat: LatIntALU, dest: true, src: srcRR},
	SLT:   {name: "slt", fu: FUIntALU, lat: LatIntALU, dest: true, src: srcRR},
	SLTU:  {name: "sltu", fu: FUIntALU, lat: LatIntALU, dest: true, src: srcRR},
	ADDI:  {name: "addi", fu: FUIntALU, lat: LatIntALU, dest: true, src: srcR},
	ANDI:  {name: "andi", fu: FUIntALU, lat: LatIntALU, dest: true, src: srcR},
	ORI:   {name: "ori", fu: FUIntALU, lat: LatIntALU, dest: true, src: srcR},
	XORI:  {name: "xori", fu: FUIntALU, lat: LatIntALU, dest: true, src: srcR},
	SLLI:  {name: "slli", fu: FUIntALU, lat: LatIntALU, dest: true, src: srcR},
	SRLI:  {name: "srli", fu: FUIntALU, lat: LatIntALU, dest: true, src: srcR},
	SRAI:  {name: "srai", fu: FUIntALU, lat: LatIntALU, dest: true, src: srcR},
	SLTI:  {name: "slti", fu: FUIntALU, lat: LatIntALU, dest: true, src: srcR},
	LI:    {name: "li", fu: FUIntALU, lat: LatIntALU, dest: true},
	FADD:  {name: "fadd", fu: FUFPAdd, lat: LatFPAdd, dest: true, fpRd: true, src: srcFF},
	FSUB:  {name: "fsub", fu: FUFPAdd, lat: LatFPAdd, dest: true, fpRd: true, src: srcFF},
	FMUL:  {name: "fmul", fu: FUFPMul, lat: LatFPMul, dest: true, fpRd: true, src: srcFF},
	FDIV:  {name: "fdiv", fu: FUFPMul, lat: LatFPDiv, dest: true, fpRd: true, src: srcFF},
	FNEG:  {name: "fneg", fu: FUFPAdd, lat: LatFPAdd, dest: true, fpRd: true, src: srcF},
	FABS:  {name: "fabs", fu: FUFPAdd, lat: LatFPAdd, dest: true, fpRd: true, src: srcF},
	FMIN:  {name: "fmin", fu: FUFPAdd, lat: LatFPAdd, dest: true, fpRd: true, src: srcFF},
	FMAX:  {name: "fmax", fu: FUFPAdd, lat: LatFPAdd, dest: true, fpRd: true, src: srcFF},
	FLT:   {name: "flt", fu: FUFPAdd, lat: LatFPAdd, dest: true, src: srcFF},
	FLE:   {name: "fle", fu: FUFPAdd, lat: LatFPAdd, dest: true, src: srcFF},
	I2F:   {name: "i2f", fu: FUFPAdd, lat: LatFPAdd, dest: true, fpRd: true, src: srcR},
	F2I:   {name: "f2i", fu: FUFPAdd, lat: LatFPAdd, dest: true, src: srcF},
	FLI:   {name: "fli", fu: FUFPAdd, lat: LatFPAdd, dest: true, fpRd: true},
	LD:    {name: "ld", fu: FUMem, isLoad: true, dest: true, src: srcR},
	ST:    {name: "st", fu: FUMem, isStore: true, src: srcRR},
	FLD:   {name: "fld", fu: FUMem, isLoad: true, dest: true, fpRd: true, src: srcR},
	FST:   {name: "fst", fu: FUMem, isStore: true, src: srcRF},
	BEQ:   {name: "beq", fu: FUIntALU, lat: LatIntALU, isBr: true, src: srcRR},
	BNE:   {name: "bne", fu: FUIntALU, lat: LatIntALU, isBr: true, src: srcRR},
	BLT:   {name: "blt", fu: FUIntALU, lat: LatIntALU, isBr: true, src: srcRR},
	BGE:   {name: "bge", fu: FUIntALU, lat: LatIntALU, isBr: true, src: srcRR},
	BLTU:  {name: "bltu", fu: FUIntALU, lat: LatIntALU, isBr: true, src: srcRR},
	BGEU:  {name: "bgeu", fu: FUIntALU, lat: LatIntALU, isBr: true, src: srcRR},
	JMP:   {name: "jmp", fu: FUIntALU, lat: LatIntALU, isJump: true},
	JAL:   {name: "jal", fu: FUIntALU, lat: LatIntALU, isJump: true, dest: true},
	JR:    {name: "jr", fu: FUIntALU, lat: LatIntALU, isJump: true, src: srcR},
	BEGIN: {name: "begin", fu: FUNone, lat: 1, sta: true},
	FORK:  {name: "fork", fu: FUNone, lat: 1, sta: true},
	TSAGD: {name: "tsagd", fu: FUNone, lat: 1, sta: true},
	TSA:   {name: "tsa", fu: FUIntALU, lat: LatIntALU, sta: true, src: srcR},
	TST:   {name: "tst", fu: FUMem, isStore: true, sta: true, src: srcRR},
	THEND: {name: "thend", fu: FUNone, lat: 1, sta: true},
	ABORT: {name: "abort", fu: FUNone, lat: 1, sta: true},
}

// Valid reports whether op is a defined opcode.
func (op Op) Valid() bool { return op < numOps }

// String returns the mnemonic for op.
func (op Op) String() string {
	if !op.Valid() {
		return fmt.Sprintf("op(%d)", uint8(op))
	}
	return opTable[op].name
}

// FU returns the functional-unit class that executes op.
func (op Op) FU() FUClass { return opTable[op].fu }

// Latency returns the execute latency of op in cycles. Memory operations
// return 0: their latency comes from the cache hierarchy.
func (op Op) Latency() int { return opTable[op].lat }

// IsBranch reports whether op is a conditional branch.
func (op Op) IsBranch() bool { return opTable[op].isBr }

// IsJump reports whether op is an unconditional control transfer.
func (op Op) IsJump() bool { return opTable[op].isJump }

// IsControl reports whether op redirects the PC (branch or jump).
func (op Op) IsControl() bool { return opTable[op].isBr || opTable[op].isJump }

// IsLoad reports whether op reads data memory.
func (op Op) IsLoad() bool { return opTable[op].isLoad }

// IsStore reports whether op writes data memory (including target stores).
func (op Op) IsStore() bool { return opTable[op].isStore }

// IsMem reports whether op accesses data memory.
func (op Op) IsMem() bool { return opTable[op].isLoad || opTable[op].isStore }

// IsSTA reports whether op is a superthreaded-architecture primitive.
func (op Op) IsSTA() bool { return opTable[op].sta }

// FPDest reports whether op writes the FP register file.
func (op Op) FPDest() bool { return opTable[op].fpRd }

// FPSrc reports whether op reads the FP register file for its sources.
func (op Op) FPSrc() bool { return opTable[op].src&(SrcFP1|SrcFP2) != 0 }

// String disassembles the instruction.
func (in Inst) String() string {
	op := in.Op
	switch {
	case op == NOP || op == HALT || op == TSAGD || op == THEND || op == ABORT:
		return op.String()
	case op == LI || op == FLI:
		return fmt.Sprintf("%s r%d, %d", op, in.Rd, in.Imm)
	case op == JMP:
		return fmt.Sprintf("%s %d", op, in.Imm)
	case op == JAL:
		return fmt.Sprintf("%s r%d, %d", op, in.Rd, in.Imm)
	case op == JR:
		return fmt.Sprintf("%s r%d", op, in.Rs1)
	case op == BEGIN:
		return fmt.Sprintf("%s mask=%#x", op, uint64(in.Imm))
	case op == FORK:
		return fmt.Sprintf("%s %d", op, in.Imm)
	case op.IsBranch():
		return fmt.Sprintf("%s r%d, r%d, %d", op, in.Rs1, in.Rs2, in.Imm)
	case op.IsLoad():
		return fmt.Sprintf("%s r%d, %d(r%d)", op, in.Rd, in.Imm, in.Rs1)
	case op.IsStore():
		return fmt.Sprintf("%s r%d, %d(r%d)", op, in.Rs2, in.Imm, in.Rs1)
	case op == TSA:
		return fmt.Sprintf("%s %d(r%d)", op, in.Imm, in.Rs1)
	case op == ADDI || op == ANDI || op == ORI || op == XORI ||
		op == SLLI || op == SRLI || op == SRAI || op == SLTI:
		return fmt.Sprintf("%s r%d, r%d, %d", op, in.Rd, in.Rs1, in.Imm)
	default:
		return fmt.Sprintf("%s r%d, r%d, r%d", op, in.Rd, in.Rs1, in.Rs2)
	}
}

// Program is an assembled unit ready for simulation: a flat instruction
// array addressed by instruction index, an initial data image, and symbols.
type Program struct {
	Insts   []Inst
	Entry   int
	Symbols map[string]int64 // label -> instruction index or data address
	// Data holds the initial contents of data memory as (addr, bytes) runs.
	Data []DataSeg
}

// DataSeg is one initialized run of data memory.
type DataSeg struct {
	Addr  uint64
	Bytes []byte
}

// At returns the instruction at pc, or HALT if pc is out of range; the
// simulator treats running off the end of the program as termination.
func (p *Program) At(pc int) Inst {
	if pc < 0 || pc >= len(p.Insts) {
		return Inst{Op: HALT}
	}
	return p.Insts[pc]
}
