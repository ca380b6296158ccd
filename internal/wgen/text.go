package wgen

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/xorshift"
)

// Register conventions of generated programs, matching the workload
// discipline (internal/workload package comment):
//
//	r1  - iteration index / continuation variable (in BEGIN mask)
//	r2  - window end (in mask)
//	r3  - &ring   pointer-chase table base (in mask)
//	r4  - &out    private per-iteration output base (in mask)
//	r5  - &idx    indirection table base (in mask)
//	r6  - &vals   streaming/probe/scan value table base (in mask)
//	r7  - &priv   private store-ratio slot base (in mask)
//	r8  - &cell   TSA/TST chain base (in mask, chain genomes only)
//	r9  - the thread's own iteration index (local)
//	r10-r17 - body temporaries, seeded from r9 before any read (local)
//	r18-r20 - address/constant scratch, always written before read (local)
//	r21-r23 - outer loop state: window counter, windows, window (in mask)
//	r24-r29 - sequential-phase and epilogue state (never live into a region)
//
// Every fragment writes its scratch registers before reading them, so the
// poisoned register files of speculatively overrun threads can never leak
// into architectural results — the property the differential soak checks.

// Text deterministically expands the genome into assembly source accepted
// by asm.Parse. The same genome always yields byte-identical text.
func (g Genome) Text() string {
	g = g.normalize()
	e := &emitter{g: g, r: xorshift.New(g.Seed)}
	e.emit()
	return e.sb.String()
}

// Program assembles the genome's text. Generation cannot produce invalid
// programs: any error here is a wgen bug, and the fuzz target hunts for it.
func (g Genome) Program() (*isa.Program, error) {
	p, err := asm.Parse(g.Text())
	if err != nil {
		return nil, fmt.Errorf("wgen: genome %s expands to invalid program: %w", g.Hash(), err)
	}
	return p, nil
}

type emitter struct {
	sb  strings.Builder
	g   Genome
	r   *xorshift.Rand
	lbl int
}

func (e *emitter) f(format string, args ...any) {
	fmt.Fprintf(&e.sb, format, args...)
	e.sb.WriteByte('\n')
}

func (e *emitter) ins(format string, args ...any) {
	e.sb.WriteString("    ")
	e.f(format, args...)
}

// temp picks one of the eight seeded body temporaries r10..r17.
func (e *emitter) temp() int { return 10 + e.r.Intn(8) }

// label returns a fresh unique label with the given stem.
func (e *emitter) label(stem string) string {
	e.lbl++
	return fmt.Sprintf("wg_%s%d", stem, e.lbl)
}

// entries is the per-table word count (a power of two, so indices mask).
func (e *emitter) entries() int { return (1 << e.g.WSLog) / 8 }

// seqIters sizes the sequential phase from the parallel-fraction knob.
func (e *emitter) seqIters() int { return 8 + 2*(maxPct-int(e.g.ParPct)) }

const valMask = 1 << 40 // table values are uniform in [0, 2^40)

func (e *emitter) emit() {
	g := e.g
	n := g.Iterations()
	slots := n + Slack
	E := e.entries()

	e.f("; wgen synthesized workload %s", g.Hash())
	e.f("; %s", g.Canonical())
	e.f(".data ring %d 64", 1<<g.WSLog)
	e.f(".data vals %d 64", 1<<g.WSLog)
	e.f(".data idx %d 64", IdxEntries*8)
	e.f(".data out %d 64", 8*slots)
	e.f(".data priv %d 64", 8*slots)
	if g.Chain != 0 {
		e.f(".data cell %d 64", 8*slots)
	}
	if g.FP != 0 {
		e.f(".data fpv 1024 64")
		e.f(".data fpout %d 64", 8*slots)
	}
	e.f(".data scratch 1024 64")

	// ring: one random Hamiltonian cycle over the E slots; each word holds
	// the byte offset of the next link, so `next = ring[cur]` chases it.
	perm := make([]int, E)
	for i := range perm {
		perm[i] = i
	}
	for i := E - 1; i > 0; i-- {
		j := e.r.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := 0; i < E; i++ {
		e.f(".word ring %d %d", perm[i]*8, perm[(i+1)%E]*8)
	}
	// vals: uniform words; the branchy-scan threshold cuts this range.
	for i := 0; i < E; i++ {
		e.f(".word vals %d %d", i*8, e.r.Uint64()%valMask)
	}
	// idx: aligned offsets into vals.
	for i := 0; i < IdxEntries; i++ {
		e.f(".word idx %d %d", i*8, e.r.Intn(E)*8)
	}
	if g.FP != 0 {
		for i := 0; i < 128; i++ {
			v := 0.5 + float64(e.r.Intn(4096))/1024
			e.f(".float fpv %d %s", i*8, strconv.FormatFloat(v, 'g', -1, 64))
		}
	}

	// Prologue: bases and outer-loop state.
	e.f("start:")
	e.ins("li r3, &ring")
	e.ins("li r4, &out")
	e.ins("li r5, &idx")
	e.ins("li r6, &vals")
	e.ins("li r7, &priv")
	if g.Chain != 0 {
		e.ins("li r8, &cell")
	}
	e.ins("li r21, 0")
	e.ins("li r22, %d", g.Windows)
	e.ins("li r23, %d", g.Window)

	e.f("outer:")
	e.emitSeqPhase()

	// Window bounds and the thread-pipelined region.
	e.ins("mul r1, r21, r23")
	e.ins("add r2, r1, r23")
	mask := []string{"r1", "r2", "r3", "r4", "r5", "r6", "r7"}
	if g.Chain != 0 {
		mask = append(mask, "r8")
	}
	mask = append(mask, "r21", "r22", "r23")
	e.ins("begin %s", strings.Join(mask, ", "))
	e.f("body:")
	e.ins("add r9, r1, r0")
	e.ins("addi r1, r1, 1")
	e.ins("fork body")
	if g.Chain != 0 {
		// TSAG stage: announce this iteration's target store cell[r9].
		e.ins("slli r18, r9, 3")
		e.ins("add r18, r18, r8")
		e.ins("tsa 0(r18)")
	}
	e.ins("tsagd")

	// Seed every body temporary from the iteration index before any use.
	for rr := 10; rr <= 17; rr++ {
		e.ins("addi r%d, r9, %d", rr, rr*7)
	}
	e.ins("mul r12, r9, r9")

	e.emitFragments()

	if g.Chain != 0 {
		e.emitChain()
	}

	// Private output: out[r9] = mix of temps.
	e.ins("xor r16, r10, r11")
	e.ins("add r16, r16, r12")
	e.ins("xor r16, r16, r14")
	e.ins("add r16, r16, r15")
	e.ins("slli r18, r9, 3")
	e.ins("add r18, r18, r4")
	e.ins("st r16, 0(r18)")

	// Exit check and region end.
	e.ins("blt r1, r2, cont")
	e.ins("abort")
	e.ins("jmp after")
	e.f("cont:")
	e.ins("thend")
	e.f("after:")
	e.ins("addi r21, r21, 1")
	e.ins("blt r21, r22, outer")

	e.emitEpilogue()
	e.ins("halt")
}

// emitSeqPhase is the unparallelized portion: a dependent chain over an
// L1-resident scratch buffer, sized by the parallel-fraction knob.
func (e *emitter) emitSeqPhase() {
	seq := e.label("seq")
	e.ins("li r28, 0")
	e.ins("li r29, %d", e.seqIters())
	e.ins("li r24, &scratch")
	e.f("%s:", seq)
	e.ins("andi r25, r28, 127")
	e.ins("slli r25, r25, 3")
	e.ins("add r25, r25, r24")
	e.ins("ld r26, 0(r25)")
	e.ins("add r26, r26, r28")
	e.ins("slli r26, r26, 1")
	e.ins("srli r26, r26, 1")
	e.ins("st r26, 0(r25)")
	e.ins("addi r28, r28, 1")
	e.ins("blt r28, r29, %s", seq)
}

// emitFragments interleaves the enabled kernel fragments in a seeded
// random order.
func (e *emitter) emitFragments() {
	type frag struct {
		name string
		emit func()
	}
	var frags []frag
	if e.g.Chase > 0 {
		frags = append(frags, frag{"chase", e.emitChase})
	}
	if e.g.Streams > 0 {
		frags = append(frags, frag{"stream", e.emitStream})
	}
	if e.g.Probes > 0 {
		frags = append(frags, frag{"probe", e.emitProbe})
	}
	if e.g.Reduce > 0 {
		frags = append(frags, frag{"reduce", e.emitReduce})
	}
	if e.g.Scans > 0 {
		frags = append(frags, frag{"scan", e.emitScan})
	}
	if e.g.FP != 0 {
		frags = append(frags, frag{"fp", e.emitFP})
	}
	for i := len(frags) - 1; i > 0; i-- {
		j := e.r.Intn(i + 1)
		frags[i], frags[j] = frags[j], frags[i]
	}
	for _, fr := range frags {
		e.f("; fragment %s", fr.name)
		fr.emit()
		e.emitStoreRatio()
	}
}

// emitStoreRatio stores a temp into the iteration's private slot with
// probability StorePct — the store-ratio knob.
func (e *emitter) emitStoreRatio() {
	if e.r.Intn(100) >= int(e.g.StorePct) {
		return
	}
	e.ins("slli r18, r9, 3")
	e.ins("add r18, r18, r7")
	e.ins("st r%d, 0(r18)", e.temp())
}

// emitChase walks the precomputed random ring for Chase hops: every load's
// address depends on the previous load's value — the mcf archetype the WEC
// targets, at a genome-controlled depth and footprint.
func (e *emitter) emitChase() {
	e.ins("andi r18, r9, %d", e.entries()-1)
	e.ins("slli r18, r18, 3")
	e.ins("add r18, r18, r3")
	for i := 0; i < int(e.g.Chase); i++ {
		e.ins("ld r19, 0(r18)")
		e.ins("add r18, r19, r3")
	}
	d, _ := e.tempPair()
	e.ins("xor r%d, r%d, r19", d, d)
}

// tempPair returns a destination temp register number twice (for
// "op rT, rT, rX" accumulations).
func (e *emitter) tempPair() (int, int) {
	t := e.temp()
	return t, t
}

// emitStream issues Streams accesses to the value table, each either
// sequential-stride, indirect through the index table, or hashed, per the
// stride/indirection mix knobs.
func (e *emitter) emitStream() {
	for j := 0; j < int(e.g.Streams); j++ {
		switch {
		case e.r.Intn(100) < int(e.g.StridePct):
			// Stride: consecutive iterations touch consecutive words.
			e.ins("addi r18, r9, %d", j*(1+e.r.Intn(3)))
			e.ins("andi r18, r18, %d", e.entries()-1)
			e.ins("slli r18, r18, 3")
			e.ins("add r18, r18, r6")
			e.ins("ld r19, 0(r18)")
			d, _ := e.tempPair()
			e.ins("add r%d, r%d, r19", d, d)
		case e.r.Intn(100) < int(e.g.IndirPct):
			// Indirect: vals[idx[i]] — the equake gather archetype.
			e.ins("addi r18, r9, %d", j)
			e.ins("andi r18, r18, %d", IdxEntries-1)
			e.ins("slli r18, r18, 3")
			e.ins("add r18, r18, r5")
			e.ins("ld r19, 0(r18)")
			e.ins("add r19, r19, r6")
			e.ins("ld r19, 0(r19)")
			d, _ := e.tempPair()
			e.ins("xor r%d, r%d, r19", d, d)
		default:
			// Hashed: address computed from live temp values.
			e.ins("li r19, %d", 0x9E3779B1|uint64(e.r.Intn(1<<16))<<1|1)
			e.ins("mul r18, r%d, r19", e.temp())
			e.ins("srli r18, r18, %d", 5+e.r.Intn(9))
			e.ins("andi r18, r18, %d", e.entries()-1)
			e.ins("slli r18, r18, 3")
			e.ins("add r18, r18, r6")
			e.ins("ld r19, 0(r18)")
			d, _ := e.tempPair()
			e.ins("add r%d, r%d, r19", d, d)
		}
	}
}

// emitProbe is a two-level hash probe: a hashed index selects a table word
// whose value selects a second, dependent access — the gzip dictionary
// archetype.
func (e *emitter) emitProbe() {
	for j := 0; j < int(e.g.Probes); j++ {
		e.ins("li r19, %d", 0x85EBCA77|uint64(e.r.Intn(1<<16))<<1|1)
		e.ins("mul r18, r%d, r19", e.temp())
		e.ins("srli r18, r18, %d", 7+e.r.Intn(7))
		e.ins("andi r18, r18, %d", e.entries()-1)
		e.ins("slli r18, r18, 3")
		e.ins("add r18, r18, r6")
		e.ins("ld r19, 0(r18)")
		e.ins("andi r19, r19, %d", e.entries()-1)
		e.ins("slli r19, r19, 3")
		e.ins("add r19, r19, r6")
		e.ins("ld r19, 0(r19)")
		d, _ := e.tempPair()
		e.ins("xor r%d, r%d, r19", d, d)
	}
}

// emitReduce emits a dependent integer reduction chain over the temps —
// the vpr ALU-heavy archetype.
func (e *emitter) emitReduce() {
	ops := []string{"add", "mul", "xor", "sub", "and", "or"}
	for j := 0; j < int(e.g.Reduce); j++ {
		if e.r.Intn(4) == 0 {
			imms := []string{"addi", "xori", "ori"}
			d, _ := e.tempPair()
			e.ins("%s r%d, r%d, %d", imms[e.r.Intn(len(imms))], d, d, e.r.Intn(64)-32)
			continue
		}
		d, _ := e.tempPair()
		e.ins("%s r%d, r%d, r%d", ops[e.r.Intn(len(ops))], d, d, e.temp())
	}
}

// emitScan loads table words and branches on them: the threshold is placed
// at the BranchPct percentile of the uniform value distribution, so the
// knob directly sets the taken rate (and with it the branch entropy and
// the wrong-path opportunity).
func (e *emitter) emitScan() {
	threshold := int64(e.g.BranchPct) * valMask / 100
	for j := 0; j < int(e.g.Scans); j++ {
		taken := e.label("t")
		done := e.label("e")
		e.ins("xor r18, r9, r%d", e.temp())
		e.ins("addi r18, r18, %d", j*3)
		e.ins("andi r18, r18, %d", e.entries()-1)
		e.ins("slli r18, r18, 3")
		e.ins("add r18, r18, r6")
		e.ins("ld r19, 0(r18)")
		d, _ := e.tempPair()
		if e.r.Intn(3) == 0 {
			// Parity hammock: irreducible 50% entropy.
			e.ins("andi r19, r19, 1")
			e.ins("bne r19, r0, %s", taken)
		} else {
			e.ins("li r20, %d", threshold)
			e.ins("blt r19, r20, %s", taken)
		}
		e.ins("xori r%d, r%d, %d", d, d, 1+e.r.Intn(127))
		e.ins("jmp %s", done)
		e.f("%s:", taken)
		e.ins("addi r%d, r%d, %d", d, d, 1+e.r.Intn(127))
		e.f("%s:", done)
	}
}

// emitFP is the floating-point reduction fragment (the equake/mesa FP
// archetype). FP registers are not forwarded at fork, so both sources are
// loaded before any FP register is read.
func (e *emitter) emitFP() {
	e.ins("li r20, &fpv")
	e.ins("andi r18, r9, 127")
	e.ins("slli r18, r18, 3")
	e.ins("add r18, r18, r20")
	e.ins("fld f1, 0(r18)")
	e.ins("addi r19, r9, 37")
	e.ins("andi r19, r19, 127")
	e.ins("slli r19, r19, 3")
	e.ins("add r19, r19, r20")
	e.ins("fld f2, 0(r19)")
	e.ins("fadd f3, f1, f2")
	e.ins("fmul f3, f3, f1")
	if e.r.Intn(2) == 0 {
		e.ins("fsub f3, f3, f2")
	} else {
		e.ins("fmax f3, f3, f2")
	}
	e.ins("li r20, &fpout")
	e.ins("slli r18, r9, 3")
	e.ins("add r18, r18, r20")
	e.ins("fst f3, 0(r18)")
}

// emitChain carries a cross-iteration dependence through the announced
// target store: cell[i] = cell[i-1] + temp. Iteration 0 of each window
// reads the previous window's last cell, already written back when the
// region started; iteration 0 overall substitutes zero.
func (e *emitter) emitChain() {
	first := e.label("chainz")
	sum := e.label("chains")
	e.ins("slli r18, r9, 3")
	e.ins("add r18, r18, r8")
	e.ins("beq r9, r0, %s", first)
	e.ins("ld r19, -8(r18)")
	e.ins("jmp %s", sum)
	e.f("%s:", first)
	e.ins("li r19, 0")
	e.f("%s:", sum)
	e.ins("add r19, r19, r10")
	e.ins("tst r19, 0(r18)")
}

// emitEpilogue folds every out[] slot into an accumulator and then derives
// every integer register from it, so differential tests can require the
// machine's complete architectural register file — not just memory — to
// match the interpreter at halt.
func (e *emitter) emitEpilogue() {
	fold := e.label("fold")
	done := e.label("folded")
	e.ins("mul r24, r22, r23")
	e.ins("li r25, 0")
	e.ins("li r26, 0")
	e.f("%s:", fold)
	e.ins("bge r26, r24, %s", done)
	e.ins("slli r27, r26, 3")
	e.ins("add r27, r27, r4")
	e.ins("ld r28, 0(r27)")
	e.ins("xor r25, r25, r28")
	e.ins("addi r26, r26, 1")
	e.ins("jmp %s", fold)
	e.f("%s:", done)
	for k := 1; k < isa.NumIntRegs; k++ {
		if k != 25 {
			e.ins("addi r%d, r25, %d", k, k)
		}
	}
}
