// Package workload provides the six benchmark kernels used to reproduce
// the paper's evaluation. SPEC2000 binaries cannot run on this simulator,
// so each kernel reproduces the *memory-behaviour archetype* of its SPEC
// counterpart (DESIGN.md §2):
//
//	mcf    - pointer chasing over a large node pool (irregular, miss-heavy)
//	equake - sparse matrix-vector product (indirect FP streaming)
//	mesa   - framebuffer/texture pixel pipeline (regular streaming)
//	gzip   - sliding-window dictionary matching (mixed, hash-driven)
//	vpr    - placement-swap evaluation (ALU-heavy, low TLP)
//	parser - binary-search dictionary lookups (branchy)
//
// Every kernel is structured as an outer sequential loop over *windows*: a
// sequential phase followed by one parallel region processing iterations
// [w, w+W). Speculatively forked threads past the window's end are exactly
// the first iterations of the *next* window, so wrong-thread execution
// (paper §3.1.2) naturally prefetches data the next region will need — the
// effect the Wrong Execution Cache exploits.
//
// Workload discipline (enforced by the machine-vs-interpreter checksum
// tests): the BEGIN mask must carry every register that is live into the
// loop body or into the code after the region (any thread can become the
// one that resumes sequential execution); cross-iteration stores must go
// through TSA/TST; all memory accesses are 8-byte aligned; arrays indexed
// by the iteration number carry slack for wrong-thread overrun.
package workload

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/isa"
)

// Slack is the number of extra iterations' worth of data allocated beyond
// every per-iteration array, covering wrong-thread overrun (at most one
// thread per TU, machine maximum 63, rounded up).
const Slack = 80

// Workload describes one benchmark kernel.
type Workload struct {
	Name  string // paper benchmark it stands in for, e.g. "181.mcf"
	Short string // short name, e.g. "mcf"
	Suite string // "SPEC2000/INT" or "SPEC2000/FP"
	// Build assembles the kernel at the given scale (1 = quick default;
	// larger scales multiply the number of windows).
	Build func(scale int) (*isa.Program, error)
}

// All lists the six kernels in the paper's order (Table 2).
func All() []*Workload {
	return []*Workload{Vpr(), Gzip(), Mcf(), Parser(), Equake(), Mesa()}
}

// ByName returns the workload with the given short or full name.
func ByName(name string) (*Workload, error) {
	for _, w := range All() {
		if w.Short == name || w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("workload: unknown benchmark %q", name)
}

// Register conventions shared by every kernel (see package comment):
//
//	r1  - iteration index / continuation variable (in mask)
//	r2  - window end (in mask)
//	r3-r8  - array bases and loop-invariant constants (in mask as needed)
//	r9  - the thread's own iteration index (local)
//	r10-r20 - body temporaries (local)
//	r21-r27 - outer-loop and sequential-phase state (in mask when live
//	          across a region)
const (
	regI   = 1
	regEnd = 2
)

// regionSpec describes one parallel region for emitRegion.
type regionSpec struct {
	name string // unique label prefix
	mask []int  // BEGIN forward mask
	tsag func() // TSAG-stage emission (TSA announcements); may be nil
	body func() // computation stage; reads r9 as the iteration index
}

// emitRegion emits the standard thread-pipelined window loop: continuation
// (advance r1, fork), TSAG, computation, exit check, abort/thread-end.
// On entry r1 holds the window start and r2 the window end.
func emitRegion(b *asm.Builder, s regionSpec) {
	b.Begin(s.mask...)
	b.Label(s.name + "_body")
	b.Op3(isa.ADD, 9, regI, 0)     // r9 = my iteration
	b.OpI(isa.ADDI, regI, regI, 1) // continuation variable for the child
	b.Fork(s.name + "_body")
	if s.tsag != nil {
		s.tsag()
	}
	b.Tsagd()
	s.body()
	b.Br(isa.BLT, regI, regEnd, s.name+"_cont")
	b.Abort()
	b.Jmp(s.name + "_after")
	b.Label(s.name + "_cont")
	b.Thend()
	b.Label(s.name + "_after")
}

// emitSeqWork emits a sequential busy phase of roughly iters dependent
// iterations touching a small scratch buffer (L1-resident), standing in for
// the unparallelized portion of the benchmark. scratch must hold 128 words.
// Clobbers r10-r12 and r28-r29.
func emitSeqWork(b *asm.Builder, label string, scratch uint64, iters int) {
	b.Li(28, 0)
	b.Li(29, int64(iters))
	b.Li(10, int64(scratch))
	b.Label(label)
	// A short dependent chain per iteration: LCG step plus a scratch update.
	b.OpI(isa.ANDI, 11, 28, 127)
	b.OpI(isa.SLLI, 11, 11, 3)
	b.Op3(isa.ADD, 11, 11, 10)
	b.Ld(12, 0, 11)
	b.Op3(isa.ADD, 12, 12, 28)
	b.OpI(isa.SLLI, 12, 12, 1)
	b.OpI(isa.SRLI, 12, 12, 1)
	b.St(12, 0, 11)
	b.OpI(isa.ADDI, 28, 28, 1)
	b.Br(isa.BLT, 28, 29, label)
}
