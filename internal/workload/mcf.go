package workload

import (
	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/xorshift"
)

// mcfParams sizes the mcf-like kernel.
type mcfParams struct {
	Nodes      int // node pool size (32 bytes each)
	Window     int // chains per parallel region
	Windows    int // number of regions (scaled)
	WalkLen    int // pointer-chase steps per chain
	HeadStride int // path distance between consecutive chain heads
	SeqIters   int // sequential-phase iterations per window
	Threshold  int64
	PriceSize  int // hot price table entries (power of two)
}

func mcfDefaults(scale int) mcfParams {
	return mcfParams{
		Nodes:      8192, // 256 KB of nodes
		Window:     16,
		Windows:    24 * scale,
		WalkLen:    16,
		HeadStride: 2,
		SeqIters:   420,
		Threshold:  0,
		PriceSize:  512, // 4 KB: half the L1, the kernel's hot working set
	}
}

// Mcf returns the 181.mcf stand-in: network-simplex-style pointer chasing
// over a large node pool. Each parallel iteration walks one linked chain,
// accumulating a cost that depends on a data-dependent branch, and advances
// the chain head. Chains are grouped into windows; speculative threads past
// a window's end start walking the next window's chains.
func Mcf() *Workload {
	return &Workload{
		Name:  "181.mcf",
		Short: "mcf",
		Suite: "SPEC2000/INT",
		Build: func(scale int) (*isa.Program, error) { return mcfBuild(mcfDefaults(scale)) },
	}
}

// mcfData computes the initial node pool and chain heads.
// Node layout: [next(8) val(8) cost(8) spare(8)], 32 bytes.
func mcfData(p mcfParams) (perm []int, vals, costs []int64, heads []int, prices []int64) {
	r := xorshift.New(181)
	n := p.Nodes
	// Random permutation cycle: node i's successor is perm[i].
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	perm = make([]int, n)
	for i := 0; i < n; i++ {
		perm[order[i]] = order[(i+1)%n]
	}
	vals = make([]int64, n)
	costs = make([]int64, n)
	for i := 0; i < n; i++ {
		vals[i] = int64(r.Intn(2001) - 1000)
		costs[i] = int64(r.Intn(97))
	}
	// Consecutive chains start HeadStride steps apart along the same cycle,
	// so walks of neighbouring iterations overlap heavily — the property
	// that makes a wrong thread's walk prefetch its TU's next correct walk.
	chains := p.Windows*p.Window + Slack
	heads = make([]int, chains)
	for c := range heads {
		heads[c] = order[(c*p.HeadStride)%n]
	}
	prices = make([]int64, p.PriceSize)
	for i := range prices {
		prices[i] = int64(r.Intn(31) - 15)
	}
	return perm, vals, costs, heads, prices
}

// McfReference computes the expected out[] array and final chain heads in
// pure Go, mirroring the emitted assembly exactly.
func McfReference(scale int) (out []int64) {
	p := mcfDefaults(scale)
	perm, vals, costs, heads, prices := mcfData(p)
	chains := p.Windows * p.Window
	out = make([]int64, chains)
	for c := 0; c < chains; c++ {
		node := heads[c]
		var acc int64
		for k := 0; k < p.WalkLen; k++ {
			v := vals[node]
			if v < p.Threshold {
				acc -= 0 // spare field is zero-initialized
			} else {
				acc += costs[node]
			}
			// Hot price lookup, indexed by the node value.
			acc += prices[v&int64(p.PriceSize-1)]
			node = perm[node]
		}
		out[c] += acc
	}
	return out
}

func mcfBuild(p mcfParams) (*isa.Program, error) {
	b := asm.New()
	nodes := b.Alloc("nodes", 32*p.Nodes, 64)
	chains := p.Windows*p.Window + Slack
	headArr := b.Alloc("heads", 8*chains, 64)
	outArr := b.Alloc("out", 8*chains, 64)
	scratch := b.Alloc("scratch", 8*128, 64)
	result := b.Alloc("result", 8, 0)

	perm, vals, costs, heads, prices := mcfData(p)
	priceArr := b.Alloc("prices", 8*p.PriceSize, 64)
	for i, v := range prices {
		b.InitWord(priceArr+uint64(8*i), v)
	}
	nodeAddr := func(i int) int64 { return int64(nodes) + int64(32*i) }
	for i := 0; i < p.Nodes; i++ {
		base := nodes + uint64(32*i)
		b.InitWord(base, nodeAddr(perm[i]))
		b.InitWord(base+8, vals[i])
		b.InitWord(base+16, costs[i])
	}
	for c, h := range heads {
		b.InitWord(headArr+uint64(8*c), nodeAddr(h))
	}

	// Loop-invariant registers (all in the fork mask).
	b.Li(4, int64(headArr))
	b.Li(5, int64(outArr))
	b.Li(6, int64(p.WalkLen))
	b.Li(7, p.Threshold)
	b.Li(3, int64(priceArr))
	b.Li(24, int64(p.PriceSize-1))
	b.Li(21, 0)                // window counter
	b.Li(22, int64(p.Windows)) // window count
	b.Li(23, int64(p.Window))  // window width

	b.Label("mcf_outer")
	emitSeqWork(b, "mcf_seq", scratch, p.SeqIters)
	// r1 = w*W, r2 = r1+W.
	b.Op3(isa.MUL, regI, 21, 23)
	b.Op3(isa.ADD, regEnd, regI, 23)
	emitRegion(b, regionSpec{
		name: "mcf",
		mask: []int{1, 2, 3, 4, 5, 6, 7, 21, 22, 23, 24},
		body: func() {
			b.OpI(isa.SLLI, 10, 9, 3)
			b.Op3(isa.ADD, 10, 10, 4) // &heads[c]
			b.Ld(11, 0, 10)           // p = heads[c]
			b.Li(12, 0)               // acc
			b.Li(13, 0)               // k
			b.Label("mcf_walk")
			b.Ld(14, 8, 11) // val
			b.Br(isa.BLT, 14, 7, "mcf_neg")
			b.Ld(15, 16, 11) // cost
			b.Op3(isa.ADD, 12, 12, 15)
			b.Jmp("mcf_step")
			b.Label("mcf_neg")
			b.Ld(15, 24, 11) // spare field (always zero)
			b.Op3(isa.SUB, 12, 12, 15)
			b.Label("mcf_step")
			// Hot price-table lookup indexed by the node value.
			b.Op3(isa.AND, 18, 14, 24)
			b.OpI(isa.SLLI, 18, 18, 3)
			b.Op3(isa.ADD, 18, 18, 3)
			b.Ld(18, 0, 18)
			b.Op3(isa.ADD, 12, 12, 18)
			b.Ld(11, 0, 11) // p = p.next (the serial dependence)
			b.OpI(isa.ADDI, 13, 13, 1)
			b.Br(isa.BLT, 13, 6, "mcf_walk")
			// out[c] += acc; heads[c] = p.
			b.OpI(isa.SLLI, 16, 9, 3)
			b.Op3(isa.ADD, 16, 16, 5)
			b.Ld(17, 0, 16)
			b.Op3(isa.ADD, 17, 17, 12)
			b.St(17, 0, 16)
			b.St(11, 0, 10)
		},
	})
	b.OpI(isa.ADDI, 21, 21, 1)
	b.Br(isa.BLT, 21, 22, "mcf_outer")

	// Final sequential reduction: result = sum(out).
	emitReduce(b, "mcf_red", outArr, p.Windows*p.Window, 1, result)
	b.Halt()
	return b.Build()
}

// emitReduce emits a sequential sum of every step-th element of an int64
// array into result (step 1 = full sum; larger steps sample, keeping the
// verification tail from dominating runtime on large arrays).
// Clobbers r10-r13.
func emitReduce(b *asm.Builder, label string, arr uint64, n, step int, result uint64) {
	if step < 1 {
		step = 1
	}
	b.Li(10, int64(arr))
	b.Li(11, int64(arr)+int64(8*n))
	b.Li(12, 0)
	b.Label(label)
	b.Ld(13, 0, 10)
	b.Op3(isa.ADD, 12, 12, 13)
	b.OpI(isa.ADDI, 10, 10, int64(8*step))
	b.Br(isa.BLT, 10, 11, label)
	b.Li(13, int64(result))
	b.St(12, 0, 13)
}
