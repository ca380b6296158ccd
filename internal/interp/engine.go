package interp

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/memimg"
)

// Hooks are optional callbacks the Engine invokes while executing, used by
// the sampled-simulation fast-forward path to warm caches and the branch
// predictor functionally. Nil hooks cost one untaken branch per relevant
// instruction class; the zero Hooks value is the plain interpreter.
type Hooks struct {
	// Load/Store observe every data access with its effective address
	// (unmasked; the consumer applies its own physical mask).
	Load  func(addr uint64)
	Store func(addr uint64)
	// Branch observes every conditional branch with its resolved direction.
	Branch func(pc int, taken bool)
	// Call/Ret observe JAL/JR pairs (return-address-stack warming).
	Call func(ret int)
	Ret  func()
	// Block observes instruction-fetch locality: it fires whenever execution
	// crosses into a different aligned group of BlockPCs instructions
	// (I-cache block warming at block rather than instruction granularity).
	Block func(pc int)
}

// Counts aggregates the dynamic instruction mix an Engine has executed.
type Counts struct {
	Insts    int64
	Loads    int64
	Stores   int64
	Branches int64
	Taken    int64
	ParInsts int64
	Forks    int64
}

// Engine is a resumable functional interpreter operating on externally
// owned architectural state. RunLimit drives one over its own fresh state;
// the sampled-simulation fast-forward path drives one over a thread unit's
// live register file and the machine's memory image, so detailed execution
// resumes exactly where functional execution stopped.
//
// The sequential semantics of the superthreaded primitives are identical to
// the package-level interpreter (see the package comment); both run on this
// engine, which is what keeps the golden model and the fast-forward path
// from ever diverging.
type Engine struct {
	Prog *isa.Program
	Mem  *memimg.Image
	Int  *[isa.NumIntRegs]int64
	FP   *[isa.NumFPRegs]float64

	// PC is the next instruction to execute; InPar/ForkTo mirror the
	// sequential region state (ForkTo -1 = no FORK recorded). Halted is set
	// when a HALT retires; further StepN calls execute nothing.
	PC     int
	InPar  bool
	ForkTo int
	Halted bool

	Hooks Hooks
	// BlockPCs is the instruction-group size for Hooks.Block (a power of
	// two). Zero disables block tracking even when the hook is set.
	BlockPCs int

	Counts Counts

	lastBlock int
}

// Reset points the engine at pc with a clean region state, keeping the
// bound program, memory, and register state.
func (e *Engine) Reset(pc int) {
	e.PC = pc
	e.InPar = false
	e.ForkTo = -1
	e.Halted = false
	e.lastBlock = -1
}

// StepN executes up to n dynamic instructions, stopping early on HALT or a
// malformed program. It returns the number of instructions executed. The
// engine may be called again to continue (unless Halted).
//
// The loop keeps the region state in locals and writes it back at each
// return through save, never through a deferred closure: a closure would
// make those locals address-taken and pin them to memory on every
// instruction.
func (e *Engine) StepN(n int64) (int64, error) {
	if e.Halted || n <= 0 {
		return 0, nil
	}
	var (
		insts     = e.Prog.Insts
		img       = e.Mem
		ir        = e.Int
		fr        = e.FP
		pc        = e.PC
		forkTo    = e.ForkTo
		inPar     = e.InPar
		lastBlock = e.lastBlock
		done      int64
		hooks     = e.Hooks
		shift     = uint(0)
	)
	trackBlocks := hooks.Block != nil && e.BlockPCs > 0
	if trackBlocks {
		for 1<<shift < e.BlockPCs {
			shift++
		}
	}
	for done < n {
		in := isa.Inst{Op: isa.HALT} // running off the program halts, as Program.At does
		if uint(pc) < uint(len(insts)) {
			in = insts[pc]
		}
		done++
		if inPar {
			e.Counts.ParInsts++
		}
		if trackBlocks {
			if b := pc >> shift; b != lastBlock {
				lastBlock = b
				hooks.Block(pc)
			}
		}
		next := pc + 1
		switch in.Op {
		case isa.HALT:
			e.Halted = true
			e.save(pc, forkTo, inPar, lastBlock, done)
			return done, nil
		case isa.NOP, isa.TSAGD, isa.TSA:
		case isa.BEGIN:
			inPar = true
			forkTo = -1
		case isa.FORK:
			forkTo = int(in.Imm)
			e.Counts.Forks++
		case isa.THEND:
			if forkTo < 0 {
				e.save(pc, forkTo, inPar, lastBlock, done)
				return done, fmt.Errorf("interp: THEND at pc %d with no preceding FORK", pc)
			}
			next = forkTo
		case isa.ABORT:
			inPar = false
			forkTo = -1
		case isa.LD:
			e.Counts.Loads++
			addr := isa.EffAddr(in, ir[in.Rs1])
			if hooks.Load != nil {
				hooks.Load(addr)
			}
			if in.Rd != 0 {
				ir[in.Rd] = img.ReadWord(addr)
			}
		case isa.FLD:
			e.Counts.Loads++
			addr := isa.EffAddr(in, ir[in.Rs1])
			if hooks.Load != nil {
				hooks.Load(addr)
			}
			fr[in.Rd] = img.ReadFloat(addr)
		case isa.ST, isa.TST:
			e.Counts.Stores++
			addr := isa.EffAddr(in, ir[in.Rs1])
			img.WriteWord(addr, ir[in.Rs2])
			if hooks.Store != nil {
				hooks.Store(addr)
			}
		case isa.FST:
			e.Counts.Stores++
			addr := isa.EffAddr(in, ir[in.Rs1])
			img.WriteFloat(addr, fr[in.Rs2])
			if hooks.Store != nil {
				hooks.Store(addr)
			}
		case isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU:
			e.Counts.Branches++
			taken := isa.BranchTaken(in, ir[in.Rs1], ir[in.Rs2])
			if taken {
				e.Counts.Taken++
				next = int(in.Imm)
			}
			if hooks.Branch != nil {
				hooks.Branch(pc, taken)
			}
		case isa.JMP:
			next = int(in.Imm)
		case isa.JAL:
			if in.Rd != 0 {
				ir[in.Rd] = int64(pc + 1)
			}
			if hooks.Call != nil {
				hooks.Call(pc + 1)
			}
			next = int(in.Imm)
		case isa.JR:
			next = int(ir[in.Rs1])
			if hooks.Ret != nil {
				hooks.Ret()
			}
		default:
			iv, fv := isa.Eval(in, ir[in.Rs1], ir[in.Rs2], fr[in.Rs1], fr[in.Rs2])
			if in.Op.FPDest() {
				fr[in.Rd] = fv
			} else if in.Rd != 0 {
				ir[in.Rd] = iv
			}
		}
		pc = next
	}
	e.save(pc, forkTo, inPar, lastBlock, done)
	return done, nil
}

// save writes StepN's loop state back to the engine.
func (e *Engine) save(pc, forkTo int, inPar bool, lastBlock int, done int64) {
	e.PC = pc
	e.ForkTo = forkTo
	e.InPar = inPar
	e.lastBlock = lastBlock
	e.Counts.Insts += done
}
