package sta

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sample"
	"repro/internal/workload"
)

// BenchmarkFastForward measures sampled simulation's functional
// fast-forward path: the interpreter with every warming hook attached
// (L1D/side/L2 loads and stores, the sequential-store update of the other
// thread units, I-cache blocks, direction predictor and RAS) on an 8-TU
// wth-wp-wec machine. Each op fast-forwards the six kernels at scale 4 to
// completion, each on a fresh machine built outside the timing, and the
// benchmark reports nanoseconds per fast-forwarded instruction.
func BenchmarkFastForward(b *testing.B) {
	cfg := DefaultConfig()
	cfg.NumTUs = 8
	cfg.Core.WrongPathExec = true
	cfg.WrongThreadExec = true
	cfg.Mem.Side = mem.SideWEC
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
			m, err := New(cfg, p)
			if err != nil {
				b.Fatal(err)
			}
			m.Sample = sample.Config{WarmupInsts: 1000, MeasureInsts: 1000, PeriodInsts: 1 << 40}
			m.initSample()
			tu := &m.tus[0]
			m.ffTU = tu.id
			m.eng.Int = &tu.core.IntRegs
			m.eng.FP = &tu.core.FPRegs
			m.eng.Reset(p.Entry)
			b.StartTimer()
			n, err := m.eng.StepN(1 << 40)
			if err != nil {
				b.Fatal(err)
			}
			if !m.eng.Halted {
				b.Fatal("kernel did not halt")
			}
			insts += n
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/inst")
}
