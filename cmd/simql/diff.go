package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/runstore"
)

// cmdDiff is the statistical comparison engine's CLI: it pairs two
// archived selections per (benchmark, scale), reports each metric's mean
// relative delta with a bootstrap confidence interval over the benchmark
// set, and exits nonzero on a significant regression. With -perf it
// instead compares two perfbench reports (files, or history directories
// whose latest snapshot is taken) under perfbench's own deterministic
// gates — so CI can gate both simulation quality and simulator speed
// through one tool.
func cmdDiff(args []string) int {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	root := fs.String("root", "runs", "archive root directory")
	tol := fs.Float64("tol", 0.01, "relative regression tolerated before the exit code trips")
	boot := fs.Int("boot", 10000, "bootstrap resamples")
	seed := fs.Uint64("seed", 0, "bootstrap RNG seed (0 = fixed default; any value is deterministic)")
	conf := fs.Float64("conf", 0.95, "confidence interval mass")
	format := fs.String("format", "table", "output format: table or json")
	perf := fs.Bool("perf", false, "compare two perfbench reports (files or history dirs) instead of archive selections")
	strict := fs.Bool("strict", false, "with -perf, also gate wall-clock ns/op")
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fail(fmt.Errorf("simql diff: want exactly two arguments (selector A and selector B, or two -perf reports)"))
	}
	if *perf {
		return diffPerf(fs.Arg(0), fs.Arg(1), *tol, *strict)
	}

	ms, err := openAll(*root)
	if err != nil {
		return fail(err)
	}
	a, err := selectFrom(ms, fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	b, err := selectFrom(ms, fs.Arg(1))
	if err != nil {
		return fail(err)
	}
	pairs, err := runstore.PairByBench(a, b)
	if err != nil {
		return fail(err)
	}

	var deltas []runstore.DeltaStat
	for _, met := range runstore.DiffMetrics() {
		deltas = append(deltas, runstore.Compare(pairs, met, *boot, *seed, *conf))
	}

	if *format == "json" {
		if err := writeJSON(os.Stdout, map[string]any{
			"a": fs.Arg(0), "b": fs.Arg(1), "pairs": len(pairs), "metrics": deltas,
		}); err != nil {
			return fail(err)
		}
	} else {
		fmt.Printf("diff: A=%q vs B=%q over %d paired benchmark(s)\n", fs.Arg(0), fs.Arg(1), len(pairs))
		fmt.Printf("positive delta = B better; CI is the %.0f%% bootstrap interval over benchmarks\n\n", *conf*100)
		for _, d := range deltas {
			verdict := "ok"
			if d.Regressed(*tol) {
				verdict = "REGRESSED"
			} else if d.Mean > *tol && d.Lo > 0 {
				verdict = "improved"
			}
			fmt.Printf("%-14s mean %+7.2f%%  CI [%+7.2f%%, %+7.2f%%]  %s\n",
				d.Metric, d.Mean*100, d.Lo*100, d.Hi*100, verdict)
			for _, b := range d.Benches {
				fmt.Printf("    %-8s %14.4f -> %14.4f  (%+.2f%%)\n", b.Bench, b.A, b.B, b.Rel*100)
			}
		}
	}
	for _, d := range deltas {
		if d.Regressed(*tol) {
			fmt.Fprintf(os.Stderr, "simql diff: %s regressed %.2f%% (CI [%+.2f%%, %+.2f%%], tolerance %.2f%%)\n",
				d.Metric, -d.Mean*100, d.Lo*100, d.Hi*100, *tol*100)
			return 1
		}
	}
	return 0
}

// diffPerf compares two perf reports (files, or history directories whose
// latest snapshot is taken) under the shared perf gate, printing each
// entry's relative deltas.
func diffPerf(aPath, bPath string, tol float64, strict bool) int {
	a, aFile, err := runstore.LoadPerf(aPath)
	if err != nil {
		return fail(err)
	}
	b, bFile, err := runstore.LoadPerf(bPath)
	if err != nil {
		return fail(err)
	}
	if w := runstore.PerfHostWarning(a, b); w != "" {
		fmt.Fprintln(os.Stderr, "simql diff -perf:", w)
	}
	byName := make(map[string]runstore.PerfEntry, len(a.Results))
	for _, e := range a.Results {
		byName[e.Name] = e
	}
	rel := func(now, then float64) float64 {
		if then == 0 {
			return 0
		}
		return now/then - 1
	}
	fmt.Printf("perf diff: %s (%s) -> %s (%s)\n\n", aFile, a.Generated, bFile, b.Generated)
	for _, e := range b.Results {
		base, ok := byName[e.Name]
		if !ok {
			continue
		}
		fmt.Printf("%-36s ns/op %+7.1f%%  allocs/op %+7.1f%%  sim-cycles/op %+7.1f%%\n",
			e.Name, rel(e.NsPerOp, base.NsPerOp)*100,
			rel(float64(e.AllocsPerOp), float64(base.AllocsPerOp))*100,
			rel(e.SimCyclesPerOp, base.SimCyclesPerOp)*100)
	}
	if bad := runstore.ComparePerf(a, b, tol, strict); len(bad) > 0 {
		fmt.Fprintln(os.Stderr)
		for _, line := range bad {
			fmt.Fprintln(os.Stderr, "REGRESSION:", line)
		}
		return 1
	}
	fmt.Printf("\nno regressions beyond %.0f%% tolerance\n", tol*100)
	return 0
}

// writeJSON pretty-prints v to w.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
