package workload

import (
	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/xorshift"
)

type equakeParams struct {
	XSize    int // mesh nodes (16 bytes each: next pointer + FP value)
	NNZ      int // nodes visited per row (walk length)
	Window   int
	Windows  int
	SeqIters int
	XUpdate  int // mesh values refreshed sequentially per window
	BaseStep int // walk-start drift per row along the traversal order
}

func equakeDefaults(scale int) equakeParams {
	return equakeParams{
		XSize:    16384, // 256 KB mesh (16 B per node)
		NNZ:      8,     // short walks: a whole walk fits in the 8-entry WEC
		Window:   16,
		Windows:  24 * scale,
		SeqIters: 470,
		XUpdate:  32,
		BaseStep: 2,
	}
}

// Equake returns the 183.equake stand-in: a sparse FEM-style kernel that
// accumulates weighted mesh-node values along an unstructured traversal.
// Each row walks NNZ linked mesh nodes — a serial chain of scattered loads,
// like a matrix row gathered through an element-to-node indirection — and
// consecutive rows start a few steps apart along the same traversal, so
// their walks overlap heavily: a wrong thread's walk prefetches most of the
// mesh blocks its thread unit's next correct row needs, while the
// address-space scatter defeats next-line prefetching.
func Equake() *Workload {
	return &Workload{
		Name:  "183.equake",
		Short: "equake",
		Suite: "SPEC2000/FP",
		Build: func(scale int) (*isa.Program, error) { return equakeBuild(equakeDefaults(scale)) },
	}
}

// equakeData builds the mesh: a random traversal cycle over XSize nodes
// (order), per-node FP values, per-visit weights, and the per-row walk
// starts. Node i's successor in the walk is perm[i].
func equakeData(p equakeParams) (order, perm []int, xval []float64, weights []float64, starts []int) {
	r := xorshift.New(183)
	n := p.XSize
	order = make([]int, n)
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
	xval = make([]float64, n)
	for i := range xval {
		xval[i] = float64(r.Intn(2000))/500.0 - 2.0
	}
	// The weight table is small and hot (element stiffness coefficients);
	// visits index it by (row*NNZ + k) mod size.
	weights = make([]float64, 512)
	for i := range weights {
		weights[i] = float64(r.Intn(1000))/250.0 - 2.0
	}
	rows := p.Windows*p.Window + Slack
	starts = make([]int, rows)
	for row := range starts {
		starts[row] = order[(row*p.BaseStep)%n]
	}
	return order, perm, xval, weights, starts
}

// EquakeReference computes the expected y[] vector, replaying the
// sequential mesh-value refresh between windows exactly as the assembly.
func EquakeReference(scale int) []float64 {
	p := equakeDefaults(scale)
	order, perm, xval, weights, starts := equakeData(p)
	y := make([]float64, p.Windows*p.Window)
	for w := 0; w < p.Windows; w++ {
		// Sequential phase: refresh a window-dependent run of mesh values
		// in traversal order.
		for j := 0; j < p.XUpdate; j++ {
			node := order[(w*p.XUpdate+j)%p.XSize]
			xval[node] = xval[node]*0.5 + 0.25
		}
		for r := w * p.Window; r < (w+1)*p.Window; r++ {
			node := starts[r]
			acc := 0.0
			for k := 0; k < p.NNZ; k++ {
				acc += xval[node] * weights[(r*p.NNZ+k)&511]
				node = perm[node]
			}
			if acc < 0 {
				acc = -acc
			}
			y[r] = acc
		}
	}
	return y
}

func equakeBuild(p equakeParams) (*isa.Program, error) {
	b := asm.New()
	order, perm, xval, weights, starts := equakeData(p)
	// Mesh node layout: [next(8) val(8)], 16 bytes.
	meshArr := b.Alloc("mesh", 16*p.XSize, 64)
	wArr := b.Alloc("weights", 8*len(weights), 64)
	startArr := b.Alloc("starts", 8*len(starts), 64)
	// updorder lists node addresses in traversal order for the sequential
	// refresh phase.
	updArr := b.Alloc("updorder", 8*p.XSize, 64)
	yArr := b.Alloc("y", 8*(p.Windows*p.Window+Slack), 64)
	scratch := b.Alloc("scratch", 8*128, 64)
	result := b.Alloc("result", 8, 0)

	nodeAddr := func(i int) int64 { return int64(meshArr) + int64(16*i) }
	for i := 0; i < p.XSize; i++ {
		b.InitWord(meshArr+uint64(16*i), nodeAddr(perm[i]))
		b.InitFloat(meshArr+uint64(16*i)+8, xval[i])
	}
	for i, wt := range weights {
		b.InitFloat(wArr+uint64(8*i), wt)
	}
	for i, st := range starts {
		b.InitWord(startArr+uint64(8*i), nodeAddr(st))
	}
	for i := 0; i < p.XSize; i++ {
		b.InitWord(updArr+uint64(8*i), nodeAddr(order[i]))
	}

	b.Li(4, int64(wArr))
	b.Li(5, int64(startArr))
	b.Li(6, int64(updArr))
	b.Li(7, int64(yArr))
	b.Li(8, int64(p.NNZ))
	b.Li(21, 0)
	b.Li(22, int64(p.Windows))
	b.Li(23, int64(p.Window))
	b.Li(24, int64(p.XUpdate))
	b.Li(25, int64(p.XSize))

	b.Label("eq_outer")
	emitSeqWork(b, "eq_seq", scratch, p.SeqIters)
	// Sequential mesh refresh: nodes (w*XUpdate + j) % XSize in traversal
	// order, j = 0..XUpdate.
	b.Op3(isa.MUL, 10, 21, 24) // w*XUpdate
	b.Li(11, 0)
	b.Fli(1, 0.5)
	b.Fli(2, 0.25)
	b.Label("eq_xup")
	b.Op3(isa.ADD, 12, 10, 11)
	b.Op3(isa.REM, 12, 12, 25)
	b.OpI(isa.SLLI, 12, 12, 3)
	b.Op3(isa.ADD, 12, 12, 6)
	b.Ld(13, 0, 12) // node address
	b.Fld(3, 8, 13)
	b.Op3(isa.FMUL, 3, 3, 1)
	b.Op3(isa.FADD, 3, 3, 2)
	b.Fst(3, 8, 13)
	b.OpI(isa.ADDI, 11, 11, 1)
	b.Br(isa.BLT, 11, 24, "eq_xup")

	b.Op3(isa.MUL, regI, 21, 23)
	b.Op3(isa.ADD, regEnd, regI, 23)
	emitRegion(b, regionSpec{
		name: "eq",
		mask: []int{1, 2, 4, 5, 6, 7, 8, 21, 22, 23, 24, 25},
		body: func() {
			// node = starts[r]; weights row pointer.
			b.OpI(isa.SLLI, 10, 9, 3)
			b.Op3(isa.ADD, 10, 10, 5)
			b.Ld(11, 0, 10)          // node address (the serial chain variable)
			b.Op3(isa.MUL, 12, 9, 8) // r*NNZ: weight table index base
			b.Fli(1, 0)              // acc
			b.Li(13, 0)              // k
			b.Label("eq_nz")
			b.Fld(2, 8, 11) // mesh value
			// Hot weight-table lookup: weights[(r*NNZ+k) & 511].
			b.Op3(isa.ADD, 14, 12, 13)
			b.OpI(isa.ANDI, 14, 14, 511)
			b.OpI(isa.SLLI, 14, 14, 3)
			b.Op3(isa.ADD, 14, 14, 4)
			b.Fld(3, 0, 14)
			b.Op3(isa.FMUL, 2, 2, 3)
			b.Op3(isa.FADD, 1, 1, 2)
			b.Ld(11, 0, 11) // node = node.next (serial dependence)
			b.OpI(isa.ADDI, 13, 13, 1)
			b.Br(isa.BLT, 13, 8, "eq_nz")
			// abs then store y[r].
			b.Fli(2, 0)
			b.Op3(isa.FLT, 15, 1, 2)
			b.Br(isa.BEQ, 15, 0, "eq_store")
			b.Op3(isa.FNEG, 1, 1, 1)
			b.Label("eq_store")
			b.OpI(isa.SLLI, 16, 9, 3)
			b.Op3(isa.ADD, 16, 16, 7)
			b.Fst(1, 0, 16)
		},
	})
	b.OpI(isa.ADDI, 21, 21, 1)
	b.Br(isa.BLT, 21, 22, "eq_outer")

	emitReduceFloat(b, "eq_red", yArr, p.Windows*p.Window, result)
	b.Halt()
	return b.Build()
}

// emitReduceFloat sums float64 array elements (truncated to int64) into
// result; clobbers r10-r13 and f1-f2.
func emitReduceFloat(b *asm.Builder, label string, arr uint64, n int, result uint64) {
	b.Li(10, int64(arr))
	b.Li(11, int64(arr)+int64(8*n))
	b.Fli(1, 0)
	b.Label(label)
	b.Fld(2, 0, 10)
	b.Op3(isa.FADD, 1, 1, 2)
	b.OpI(isa.ADDI, 10, 10, 8)
	b.Br(isa.BLT, 10, 11, label)
	b.Op3(isa.F2I, 12, 1, 0)
	b.Li(13, int64(result))
	b.St(12, 0, 13)
}

// equakeSum mirrors emitReduceFloat for tests.
func equakeSum(y []float64) int64 {
	acc := 0.0
	for _, v := range y {
		acc += v
	}
	return int64(acc)
}
