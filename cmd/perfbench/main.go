// Command perfbench is the perf-regression harness: it measures the
// simulator's figure benchmarks plus a raw cycle-loop microbenchmark and
// writes the numbers to a JSON report (BENCH_speed.json by default).
//
// Each entry records wall time per simulation (ns/op), allocations per
// simulation (allocs/op), the simulated cycle count per run, and simulated
// cycles per host second. Two of those — allocs/op and sim cycles/op — are
// bit-deterministic and host-independent, which makes them safe CI gates;
// the wall-clock numbers depend on the host and are gated only with
// -strict.
//
//	perfbench -out BENCH_speed.json                 # measure
//	perfbench -check perf/BENCH_baseline.json       # measure + compare
//	perfbench -check old.json -strict -tolerance 0.1
//
// With -check, the process exits nonzero if any benchmark regressed more
// than -tolerance (default 10%) against the baseline file: always for
// allocs/op and sim cycles/op, and additionally for ns/op under -strict.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/runstore"
	"repro/internal/sample"
	"repro/internal/sta"
	"repro/internal/workload"
)

// scenario names one (benchmark, configuration) simulation to measure.
type scenario struct {
	name     string
	bench    string
	cfgName  config.Name
	tus      int
	interval uint64 // metrics sampling interval; 0 = no collector
	tap      bool   // attach a telemetry progress tap (sta.Machine.Tap)
	sampled  bool   // run under the standard sampled-simulation regime
}

// sampleRegime is the fixed sampling configuration the sampled scenarios
// (and the CI accuracy smoke) use: 1k warmup + 2k measured instructions per
// 12k-instruction period, i.e. 25% detailed coverage.
func sampleRegime() sample.Config {
	return sample.Config{WarmupInsts: 1000, MeasureInsts: 2000, PeriodInsts: 12000}
}

func scenarios() []scenario {
	var out []scenario
	// Every figure benchmark under the full wth-wp-wec machine: this is the
	// configuration the paper's headline results (and the bulk of the
	// experiment suite's runtime) are built from.
	for _, w := range workload.All() {
		out = append(out, scenario{
			name:    "sim/" + w.Short + "/wth-wp-wec/8tu",
			bench:   w.Short,
			cfgName: config.WTHWPWEC,
			tus:     8,
		})
	}
	out = append(out,
		scenario{name: "sim/mcf/orig/8tu", bench: "mcf", cfgName: config.Orig, tus: 8},
		scenario{name: "sim/gzip/orig/1tu", bench: "gzip", cfgName: config.Orig, tus: 1},
		scenario{name: "sim/mcf/wth-wp-wec/8tu+metrics", bench: "mcf",
			cfgName: config.WTHWPWEC, tus: 8, interval: 10000},
		// The live-telemetry tap: its published cost is two atomic stores
		// plus a commit sweep every 1024 loop iterations, so this entry
		// should track the untapped mcf/wth-wp-wec/8tu numbers.
		scenario{name: "sim/mcf/wth-wp-wec/8tu+tap", bench: "mcf",
			cfgName: config.WTHWPWEC, tus: 8, tap: true},
	)
	// Big machines: how the cycle loop's cost grows with the TU count.
	// The "serial" suffix keeps the names continuous with older reports.
	for _, tus := range []int{16, 32} {
		out = append(out, scenario{name: fmt.Sprintf("scale/mcf/wth-wp-wec/%dtu/serial", tus),
			bench: "mcf", cfgName: config.WTHWPWEC, tus: tus})
	}
	// Sampled simulation under the standard regime (25% detailed coverage):
	// the headline benchmark again, so the sampled-vs-detailed ns/op ratio
	// for sim/mcf/wth-wp-wec/8tu is readable straight off the report.
	out = append(out, scenario{
		name:  "sim/mcf/wth-wp-wec/8tu+sampled",
		bench: "mcf", cfgName: config.WTHWPWEC, tus: 8, sampled: true,
	})
	return out
}

// measure runs one scenario under testing.Benchmark.
func measure(sc scenario) (runstore.PerfEntry, error) {
	w, err := workload.ByName(sc.bench)
	if err != nil {
		return runstore.PerfEntry{}, err
	}
	prog, err := w.Build(1)
	if err != nil {
		return runstore.PerfEntry{}, err
	}
	cfg := config.Main(sc.tus)
	if err := config.Apply(sc.cfgName, &cfg); err != nil {
		return runstore.PerfEntry{}, err
	}
	return run(sc, cfg, prog)
}

func run(sc scenario, cfg sta.Config, prog *isa.Program) (runstore.PerfEntry, error) {
	var cycles uint64
	var failure error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		cycles = 0
		for i := 0; i < b.N; i++ {
			m, err := sta.New(cfg, prog)
			if err != nil {
				failure = err
				b.FailNow()
			}
			if sc.sampled {
				m.Sample = sampleRegime()
			}
			if sc.interval > 0 {
				m.Metrics = metrics.NewCollector(sc.interval)
			}
			if sc.tap {
				m.Tap = &sta.ProgressTap{}
			}
			r, err := m.Run()
			if err != nil {
				failure = err
				b.FailNow()
			}
			cycles += r.Stats.Cycles
		}
	})
	if failure != nil {
		return runstore.PerfEntry{}, fmt.Errorf("%s: %w", sc.name, failure)
	}
	perOp := float64(cycles) / float64(res.N)
	return runstore.PerfEntry{
		Name:            sc.name,
		NsPerOp:         float64(res.NsPerOp()),
		AllocsPerOp:     res.AllocsPerOp(),
		BytesPerOp:      res.AllocedBytesPerOp(),
		SimCyclesPerOp:  perOp,
		SimCyclesPerSec: perOp / (float64(res.NsPerOp()) / 1e9),
		Runs:            res.N,
	}, nil
}

// microbench measures the raw per-cycle stepping overhead: a tight
// sequential ALU loop on one TU keeps the pipeline busy every cycle, so
// cycles/s here is the simulator's core-loop throughput with no memory
// system or threading activity in the way.
func microbench() (runstore.PerfEntry, error) {
	b := asm.New()
	b.Li(1, 0)
	b.Li(2, 100_000)
	b.Label("loop")
	b.Op3(isa.ADD, 3, 1, 2)
	b.Op3(isa.XOR, 4, 3, 1)
	b.OpI(isa.SLLI, 5, 4, 1)
	b.Op3(isa.SUB, 6, 5, 3)
	b.OpI(isa.ADDI, 1, 1, 1)
	b.Br(isa.BLT, 1, 2, "loop")
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		return runstore.PerfEntry{}, err
	}
	cfg := config.Main(1)
	cfg.MaxCycles = 100_000_000
	return run(scenario{name: "micro/cycle-loop/1tu"}, cfg, prog)
}

func main() {
	out := flag.String("out", "BENCH_speed.json", "write the measurement report here")
	check := flag.String("check", "", "baseline JSON to compare against; exit 1 on regression")
	tol := flag.Float64("tolerance", 0.10, "allowed relative regression before failing -check")
	strict := flag.Bool("strict", false, "also gate wall-clock ns/op (host-dependent) under -check")
	suite := flag.Bool("suite", false, "also time one full experiments regeneration (suite_wall_seconds)")
	history := flag.String("history", "perf/history", "also append a timestamped snapshot of the report into this directory (\"\" disables); simql diff -perf and simql report read the trend from here")
	flag.Parse()

	rep := &runstore.PerfReport{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		HostCPUs:   runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	for _, sc := range scenarios() {
		e, err := measure(sc)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Printf("%-36s %12.0f ns/op %8d allocs/op %14.0f cycles/s\n",
			e.Name, e.NsPerOp, e.AllocsPerOp, e.SimCyclesPerSec)
		rep.Results = append(rep.Results, e)
	}
	e, err := microbench()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("%-36s %12.0f ns/op %8d allocs/op %14.0f cycles/s\n",
		e.Name, e.NsPerOp, e.AllocsPerOp, e.SimCyclesPerSec)
	rep.Results = append(rep.Results, e)

	if *suite {
		start := time.Now()
		r := harness.NewRunner(1)
		for _, ex := range harness.All() {
			if err := ex.RunTo(r, io.Discard); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				os.Exit(1)
			}
		}
		rep.SuiteWallSeconds = time.Since(start).Seconds()
		fmt.Printf("%-36s %38.1f s\n", "suite/experiments-all", rep.SuiteWallSeconds)
	}

	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println("wrote", *out)

	if *history != "" {
		// The history directory accumulates one immutable snapshot per
		// measurement, named by the report's own UTC timestamp, so
		// `simql report` can plot the perf trend and `simql diff -perf`
		// can compare any two points. perf/.gitignore keeps snapshots out
		// of the repository; only the curated baseline is committed.
		if err := os.MkdirAll(*history, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		stamp := strings.Map(func(r rune) rune {
			if r == ':' {
				return '-'
			}
			return r
		}, rep.Generated)
		snap := filepath.Join(*history, stamp+".json")
		if err := os.WriteFile(snap, append(raw, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", snap)
	}

	if *check != "" {
		base, _, err := runstore.LoadPerf(*check)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		if w := runstore.PerfHostWarning(base, rep); w != "" {
			fmt.Fprintln(os.Stderr, "perfbench:", w)
		}
		if bad := runstore.ComparePerf(base, rep, *tol, *strict); len(bad) > 0 {
			for _, line := range bad {
				fmt.Fprintln(os.Stderr, "REGRESSION:", line)
			}
			os.Exit(1)
		}
		fmt.Printf("check against %s passed (tolerance %.0f%%)\n", *check, *tol*100)
	}
}
