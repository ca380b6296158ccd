package workload

import (
	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/xorshift"
)

type vprParams struct {
	Cells    int // placement cells (power of two)
	Window   int
	Windows  int
	SeqIters int
}

func vprDefaults(scale int) vprParams {
	return vprParams{
		Cells:    16384, // 128 KB placement
		Window:   16,
		Windows:  24 * scale,
		SeqIters: 850,
	}
}

// Vpr returns the 175.vpr stand-in: placement-swap cost evaluation. Each
// iteration derives two pseudo-random cells, reads their (packed x,y)
// positions and a neighbour each, and computes a wirelength-style cost
// through a long chain of ALU operations. Iterations are short and
// ALU-bound with little memory traffic, so — as the paper observes for vpr
// — thread-level parallelism barely pays and fork overhead can make the
// parallel machine slower than a wide superscalar.
func Vpr() *Workload {
	return &Workload{
		Name:  "175.vpr",
		Short: "vpr",
		Suite: "SPEC2000/INT",
		Build: func(scale int) (*isa.Program, error) { return vprBuild(vprDefaults(scale)) },
	}
}

func vprData(p vprParams) (pos, delay []int64) {
	r := xorshift.New(175)
	pos = make([]int64, p.Cells)
	for i := range pos {
		pos[i] = int64(r.Intn(1024))<<32 | int64(r.Intn(1024))
	}
	// Hot delay lookup table (timing cost per wirelength bucket).
	delay = make([]int64, 256)
	for i := range delay {
		delay[i] = int64(i + r.Intn(7))
	}
	return pos, delay
}

const vprMix = 0x2545F4914F6CDD1D

// vprDerive mirrors the assembly's cell-index derivation: cell a is local
// to a region that drifts with the move number (annealers perturb within a
// neighbourhood), cell b is fully random.
func vprDerive(i int64, cells int) (a, b int64) {
	m := i * vprMix
	a = (i*4 + ((m >> 17) & 63)) & int64(cells-1)
	m2 := (m ^ (m >> 29)) * 0x5851F42D
	b = (m2 >> 13) & int64(cells-1)
	return a, b
}

func absI64(v int64) int64 {
	s := v >> 63
	return (v ^ s) - s
}

// VprReference computes the expected out[] array of move costs.
func VprReference(scale int) []int64 {
	p := vprDefaults(scale)
	pos, delay := vprData(p)
	n := p.Windows * p.Window
	out := make([]int64, n)
	for i := 0; i < n; i++ {
		a, b := vprDerive(int64(i), p.Cells)
		pa, pb := pos[a], pos[b]
		na, nb := pos[a^1], pos[b^1]
		xa, ya := pa>>32, pa&0xFFFFFFFF
		xb, yb := pb>>32, pb&0xFFFFFFFF
		xna, yna := na>>32, na&0xFFFFFFFF
		xnb, ynb := nb>>32, nb&0xFFFFFFFF
		before := absI64(xa-xna) + absI64(ya-yna) + absI64(xb-xnb) + absI64(yb-ynb)
		after := absI64(xb-xna) + absI64(yb-yna) + absI64(xa-xnb) + absI64(ya-ynb)
		out[i] = before*3 - after*2 + delay[before&255] - delay[after&255]
	}
	return out
}

func vprBuild(p vprParams) (*isa.Program, error) {
	b := asm.New()
	pos, delay := vprData(p)
	posArr := b.Alloc("pos", 8*p.Cells, 64)
	delayArr := b.Alloc("delay", 8*len(delay), 64)
	for i, v := range delay {
		b.InitWord(delayArr+uint64(8*i), v)
	}
	n := p.Windows * p.Window
	outArr := b.Alloc("out", 8*(n+Slack), 64)
	scratch := b.Alloc("scratch", 8*128, 64)
	result := b.Alloc("result", 8, 0)
	for i, v := range pos {
		b.InitWord(posArr+uint64(8*i), v)
	}

	b.Li(4, int64(posArr))
	b.Li(5, int64(outArr))
	b.Li(6, vprMix)
	b.Li(7, 0x5851F42D)
	b.Li(8, int64(p.Cells-1))
	b.Li(3, int64(delayArr))
	b.Li(21, 0)
	b.Li(22, int64(p.Windows))
	b.Li(23, int64(p.Window))

	// emitAbs computes |dst| in place using the sign-mask identity;
	// clobbers tmp.
	emitAbs := func(dst, tmp int) {
		b.OpI(isa.SRAI, tmp, dst, 63)
		b.Op3(isa.XOR, dst, dst, tmp)
		b.Op3(isa.SUB, dst, dst, tmp)
	}
	// emitXY splits packed position src into x (dstX) and y (dstY).
	emitXY := func(dstX, dstY, src int) {
		b.OpI(isa.SRAI, dstX, src, 32)
		b.OpI(isa.SLLI, dstY, src, 32)
		b.OpI(isa.SRLI, dstY, dstY, 32)
	}

	b.Label("vpr_outer")
	emitSeqWork(b, "vpr_seq", scratch, p.SeqIters)
	b.Op3(isa.MUL, regI, 21, 23)
	b.Op3(isa.ADD, regEnd, regI, 23)
	emitRegion(b, regionSpec{
		name: "vpr",
		mask: []int{1, 2, 3, 4, 5, 6, 7, 8, 21, 22, 23},
		body: func() {
			// Derive cells a (r10) and b (r11) from the iteration index.
			b.Op3(isa.MUL, 12, 9, 6) // m = i*mix
			b.OpI(isa.SRAI, 10, 12, 17)
			b.OpI(isa.ANDI, 10, 10, 63)
			b.OpI(isa.SLLI, 13, 9, 2)
			b.Op3(isa.ADD, 10, 10, 13)
			b.Op3(isa.AND, 10, 10, 8) // a
			b.OpI(isa.SRAI, 13, 12, 29)
			b.Op3(isa.XOR, 13, 13, 12)
			b.Op3(isa.MUL, 13, 13, 7) // m2
			b.OpI(isa.SRAI, 11, 13, 13)
			b.Op3(isa.AND, 11, 11, 8) // b
			// Load pos[a], pos[b], pos[a^1], pos[b^1].
			b.OpI(isa.SLLI, 12, 10, 3)
			b.Op3(isa.ADD, 12, 12, 4)
			b.Ld(14, 0, 12) // pa
			b.OpI(isa.XORI, 13, 10, 1)
			b.OpI(isa.SLLI, 13, 13, 3)
			b.Op3(isa.ADD, 13, 13, 4)
			b.Ld(15, 0, 13) // na
			b.OpI(isa.SLLI, 12, 11, 3)
			b.Op3(isa.ADD, 12, 12, 4)
			b.Ld(16, 0, 12) // pb
			b.OpI(isa.XORI, 13, 11, 1)
			b.OpI(isa.SLLI, 13, 13, 3)
			b.Op3(isa.ADD, 13, 13, 4)
			b.Ld(17, 0, 13) // nb
			// Unpack: xa,ya (r10,r11 reused), xna,yna (r12,r13),
			// xb,yb (r18,r19), xnb,ynb (r20,r15 reuse after).
			emitXY(10, 11, 14)
			emitXY(12, 13, 15)
			emitXY(18, 19, 16)
			emitXY(20, 15, 17) // xnb=r20, ynb=r15
			// before = |xa-xna|+|ya-yna|+|xb-xnb|+|yb-ynb| into r16.
			b.Op3(isa.SUB, 14, 10, 12)
			emitAbs(14, 17)
			b.Op3(isa.SUB, 16, 11, 13)
			emitAbs(16, 17)
			b.Op3(isa.ADD, 16, 16, 14)
			b.Op3(isa.SUB, 14, 18, 20)
			emitAbs(14, 17)
			b.Op3(isa.ADD, 16, 16, 14)
			b.Op3(isa.SUB, 14, 19, 15)
			emitAbs(14, 17)
			b.Op3(isa.ADD, 16, 16, 14)
			// after = |xb-xna|+|yb-yna|+|xa-xnb|+|ya-ynb| into r14.
			b.Op3(isa.SUB, 14, 18, 12)
			emitAbs(14, 17)
			b.Op3(isa.SUB, 18, 19, 13)
			emitAbs(18, 17)
			b.Op3(isa.ADD, 14, 14, 18)
			b.Op3(isa.SUB, 18, 10, 20)
			emitAbs(18, 17)
			b.Op3(isa.ADD, 14, 14, 18)
			b.Op3(isa.SUB, 18, 11, 15)
			emitAbs(18, 17)
			b.Op3(isa.ADD, 14, 14, 18)
			// cost = before*3 - after*2 + delay[before&255] - delay[after&255]
			b.OpI(isa.ANDI, 12, 16, 255)
			b.OpI(isa.SLLI, 12, 12, 3)
			b.Op3(isa.ADD, 12, 12, 3)
			b.Ld(12, 0, 12)
			b.OpI(isa.ANDI, 13, 14, 255)
			b.OpI(isa.SLLI, 13, 13, 3)
			b.Op3(isa.ADD, 13, 13, 3)
			b.Ld(13, 0, 13)
			b.Li(17, 3)
			b.Op3(isa.MUL, 16, 16, 17)
			b.Li(17, 2)
			b.Op3(isa.MUL, 14, 14, 17)
			b.Op3(isa.SUB, 16, 16, 14)
			b.Op3(isa.ADD, 16, 16, 12)
			b.Op3(isa.SUB, 16, 16, 13)
			// out[i] = cost
			b.OpI(isa.SLLI, 17, 9, 3)
			b.Op3(isa.ADD, 17, 17, 5)
			b.St(16, 0, 17)
		},
	})
	b.OpI(isa.ADDI, 21, 21, 1)
	b.Br(isa.BLT, 21, 22, "vpr_outer")

	emitReduce(b, "vpr_red", outArr, n, 1, result)
	b.Halt()
	return b.Build()
}
