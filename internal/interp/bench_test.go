package interp

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/memimg"
	"repro/internal/workload"
)

// BenchmarkEngineStepN measures the bare interpreter — no hooks — over the
// six kernels at scale 4, reporting nanoseconds per executed instruction.
// Each op runs every kernel to completion on fresh state; building the
// state is excluded from the timing.
func BenchmarkEngineStepN(b *testing.B) {
	var progs []*isa.Program
	for _, w := range workload.All() {
		p, err := w.Build(4)
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, p)
	}
	var insts int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			b.StopTimer()
			img := memimg.New()
			asm.LoadData(p, img)
			var r Result
			e := Engine{Prog: p, Mem: img, Int: &r.IntRegs, FP: &r.FPRegs}
			e.Reset(p.Entry)
			b.StartTimer()
			if _, err := e.StepN(MaxInsts); err != nil {
				b.Fatal(err)
			}
			if !e.Halted {
				b.Fatal("kernel did not halt")
			}
			insts += e.Counts.Insts
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/inst")
}
