package repro

import (
	"testing"

	"repro/internal/attrib"
	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/sta"
	"repro/internal/workload"
)

// ---- Figure/table regeneration benchmarks ------------------------------
//
// One benchmark per table and figure of the paper's evaluation (DESIGN.md
// per-experiment index). Each iteration regenerates the experiment from
// scratch; run with -benchtime=1x for a single regeneration, e.g.
//
//	go test -bench=Fig11 -benchtime=1x .
//
// The reported ns/op is the wall time of the full experiment (all
// benchmark x configuration simulations it requires).

func benchExperiment(b *testing.B, id string) {
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner(1)
		e, err := harness.ByID(id)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Run(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkFig8(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)  { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)  { benchExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)  { benchExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B)  { benchExperiment(b, "fig16") }
func BenchmarkFig17(b *testing.B)  { benchExperiment(b, "fig17") }

// ---- Simulator throughput micro-benchmarks -----------------------------
//
// These measure the simulator itself (simulated cycles per wall second,
// and wall nanoseconds per committed instruction), useful when working on
// the core or memory-system code, e.g.
//
//	go test -run XXX -bench 'Sim(McfWEC8TU|GzipOrig1TU)$' -benchtime 20x .

func benchSimulate(b *testing.B, bench string, cfgName config.Name, tus int, interval uint64) {
	w, err := workload.ByName(bench)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := w.Build(1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := config.Main(tus)
	if err := config.Apply(cfgName, &cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var cycles, commits uint64
	for i := 0; i < b.N; i++ {
		m, err := sta.New(cfg, prog)
		if err != nil {
			b.Fatal(err)
		}
		if interval > 0 {
			m.Metrics = metrics.NewCollector(interval)
		}
		res, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Stats.Cycles
		commits += res.Stats.Commits
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "cycles/run")
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(commits), "ns/commit")
}

func BenchmarkSimMcfOrig8TU(b *testing.B)   { benchSimulate(b, "mcf", config.Orig, 8, 0) }
func BenchmarkSimMcfWEC8TU(b *testing.B)    { benchSimulate(b, "mcf", config.WTHWPWEC, 8, 0) }
func BenchmarkSimEquakeWEC8TU(b *testing.B) { benchSimulate(b, "equake", config.WTHWPWEC, 8, 0) }
func BenchmarkSimGzipOrig1TU(b *testing.B)  { benchSimulate(b, "gzip", config.Orig, 1, 0) }
func BenchmarkSimParserNLP8TU(b *testing.B) { benchSimulate(b, "parser", config.NLP, 8, 0) }

// BenchmarkSimMcfWEC8TUMetrics measures the overhead of a fully attached
// metrics collector (registry + sampler + histograms, 10k-cycle interval).
// Compare against BenchmarkSimMcfWEC8TU: the delta is the instrumentation
// cost, which should stay within run-to-run noise for uninstrumented runs
// and in the low single digits percent when attached.
func BenchmarkSimMcfWEC8TUMetrics(b *testing.B) {
	benchSimulate(b, "mcf", config.WTHWPWEC, 8, 10000)
}

// BenchmarkSimMcfWEC8TUAttrib measures the overhead of an attached
// attribution collector (block provenance + shadow table, no metrics).
// Compare against BenchmarkSimMcfWEC8TU; with the collector detached the
// instrumentation is a nil check per hook site and must not move the
// baseline number.
func BenchmarkSimMcfWEC8TUAttrib(b *testing.B) {
	w, err := workload.ByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := w.Build(1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := config.Main(8)
	if err := config.Apply(config.WTHWPWEC, &cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		m, err := sta.New(cfg, prog)
		if err != nil {
			b.Fatal(err)
		}
		m.Attrib = attrib.NewCollector()
		res, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Stats.Cycles
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "cycles/run")
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
}
