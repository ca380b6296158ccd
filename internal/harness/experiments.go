package harness

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/config"
	"repro/internal/sta"
	"repro/internal/stats"
)

// table2 reports per-benchmark dynamic instruction counts and the fraction
// executed inside parallel regions, from the functional reference.
func table2(r *Runner) (*stats.Table, error) {
	t := &stats.Table{Header: []string{
		"Benchmark", "Suite", "Whole (K inst)", "Targeted loops (K inst)", "Fraction parallelized",
	}}
	for _, b := range Benches() {
		ref, err := r.Reference(b.Short)
		if err != nil {
			return nil, err
		}
		frac := float64(ref.ParInsts) / float64(ref.Insts)
		t.AddRow(b.Name, b.Suite,
			fmt.Sprintf("%.1f", float64(ref.Insts)/1e3),
			fmt.Sprintf("%.1f", float64(ref.ParInsts)/1e3),
			fmt.Sprintf("%.1f%%", frac*100))
	}
	return t, nil
}

// table3 prints the constant-total-capacity scaling rows.
func table3(r *Runner) (*stats.Table, error) {
	t := &stats.Table{Header: []string{
		"# of TUs", "Issue rate", "ROB", "INT ALU", "INT MULT", "FP ALU", "FP MULT", "L1 data (KB)",
	}}
	for _, row := range config.Table3Rows()[1:] {
		t.AddRow(
			fmt.Sprint(row.TUs), fmt.Sprint(row.Issue), fmt.Sprint(row.ROB),
			fmt.Sprint(row.IntALU), fmt.Sprint(row.IntMul),
			fmt.Sprint(row.FPALU), fmt.Sprint(row.FPMul), fmt.Sprint(row.L1DKBytes))
	}
	return t, nil
}

// fig8 compares thread-level against instruction-level parallelism in the
// parallelized portions: Table 3 machine shapes against a single-thread
// single-issue baseline, measured over parallel-region cycles only.
func fig8(r *Runner) (*stats.Table, error) {
	rows := config.Table3Rows()
	machines := make([]sta.Config, len(rows))
	for i, row := range rows {
		machines[i] = row.Machine()
	}
	g, err := r.runGrid(new(cfgset), machines)
	if err != nil {
		return nil, err
	}
	hdr := []string{"Benchmark"}
	for _, row := range rows[1:] {
		hdr = append(hdr, row.Label())
	}
	t := &stats.Table{Header: hdr}
	perCol := make([][]float64, len(rows)-1)
	for _, b := range Benches() {
		base := g.at(b.Short, machines[0])
		cells := []string{b.Short}
		for i, m := range machines[1:] {
			sp := stats.Speedup(base.Stats.ParCycles, g.at(b.Short, m).Stats.ParCycles)
			perCol[i] = append(perCol[i], sp)
			cells = append(cells, fmt.Sprintf("%.2fx", sp))
		}
		t.AddRow(cells...)
	}
	avg := []string{"average"}
	for _, col := range perCol {
		avg = append(avg, fmt.Sprintf("%.2fx", stats.WeightedAverageSpeedup(col)))
	}
	t.AddRow(avg...)
	return t, nil
}

var tuSweep = []int{1, 2, 4, 8, 16}

// fig9 reports whole-program speedups of orig and wth-wp-wec machines with
// 1-16 TUs against the single-TU orig machine.
func fig9(r *Runner) (*stats.Table, error) {
	cs := new(cfgset)
	base := cs.main(config.Orig, 1)
	var orig, wec []benchCol
	var order []sta.Config // the sweep runs orig and wth-wp-wec side by side
	for _, n := range tuSweep {
		o, w := cs.main(config.Orig, n), cs.main(config.WTHWPWEC, n)
		order = append(order, o, w)
		if n > 1 {
			orig = append(orig, benchCol{fmt.Sprintf("orig %dTU", n), base, o})
		}
		wec = append(wec, benchCol{fmt.Sprintf("wec %dTU", n), base, w})
	}
	return benchTable(r, cs, append(orig, wec...), false, order...)
}

// fig10 reports the wth-wp-wec speedup over the orig machine with the same
// thread-unit count.
func fig10(r *Runner) (*stats.Table, error) {
	cs := new(cfgset)
	var cols []benchCol
	for _, n := range tuSweep {
		cols = append(cols, benchCol{fmt.Sprintf("%dTU", n), cs.main(config.Orig, n), cs.main(config.WTHWPWEC, n)})
	}
	return benchTable(r, cs, cols, true)
}

// fig11 compares all configurations at 8 TUs against orig.
func fig11(r *Runner) (*stats.Table, error) {
	cs := new(cfgset)
	orig := cs.at8(config.Orig, nil)
	var cols []benchCol
	for _, n := range config.Names()[1:] {
		cols = append(cols, benchCol{string(n), orig, cs.at8(n, nil)})
	}
	return benchTable(r, cs, cols, true)
}

// sweepAgainstOrig builds the rows of a speedup table over one swept 8-TU
// machine parameter: for each value, each named configuration against
// orig at the same value, labelled by label(name, value).
func sweepAgainstOrig[V any](cs *cfgset, vals []V, names []config.Name,
	set func(*sta.Config, V), label func(config.Name, V) string) []speedupRow {
	var rows []speedupRow
	for _, v := range vals {
		mut := func(c *sta.Config) { set(c, v) }
		orig := cs.at8(config.Orig, mut)
		for _, n := range names {
			rows = append(rows, speedupRow{label(n, v), orig, cs.at8(n, mut)})
		}
	}
	return rows
}

// fig12 sweeps L1 associativity (direct-mapped vs 4-way) for the victim
// cache and WEC configurations; each row's baseline is orig at the same
// associativity.
func fig12(r *Runner) (*stats.Table, error) {
	cs := new(cfgset)
	rows := sweepAgainstOrig(cs, []int{1, 4},
		[]config.Name{config.VC, config.WTHWPVC, config.WTHWPWEC},
		func(c *sta.Config, a int) { c.Mem.L1DAssoc = a },
		func(n config.Name, a int) string { return fmt.Sprintf("%dway %s", a, n) })
	return speedupTable(r, cs, "Config", rows, false)
}

// fig13 sweeps the L1 data cache size, reporting execution time normalized
// to orig with the smallest L1.
func fig13(r *Runner) (*stats.Table, error) {
	return normalizedSweep(r, []int{4, 8, 16, 32}, func(c *sta.Config, b int) { c.Mem.L1DSize = b })
}

// fig14 sweeps the shared L2 size (the paper's 128/256/512 KB progression,
// scaled 1:2:4 to this repo's workload footprints as 32/64/128 KB).
func fig14(r *Runner) (*stats.Table, error) {
	return normalizedSweep(r, []int{32, 64, 128}, func(c *sta.Config, b int) { c.Mem.L2Size = b })
}

// sweepSideSizes builds the Figure 15/16 style comparisons: relative
// speedup over orig for each (configuration, side-buffer entries) pair.
func sweepSideSizes(r *Runner, names []config.Name, sizes []int) (*stats.Table, error) {
	cs := new(cfgset)
	orig := cs.at8(config.Orig, nil)
	var rows []speedupRow
	for _, n := range names {
		for _, e := range sizes {
			cfg := cs.at8(n, func(c *sta.Config) { c.Mem.SideEntries = e })
			rows = append(rows, speedupRow{fmt.Sprintf("%s %d", n, e), orig, cfg})
		}
	}
	return speedupTable(r, cs, "Config", rows, false)
}

// fig15 compares WEC sizes against victim cache sizes (4/8/16 entries).
func fig15(r *Runner) (*stats.Table, error) {
	return sweepSideSizes(r,
		[]config.Name{config.VC, config.WTHWPVC, config.WTHWPWEC},
		[]int{4, 8, 16})
}

// fig16 compares the WEC against next-line prefetch buffers (8/16/32).
func fig16(r *Runner) (*stats.Table, error) {
	return sweepSideSizes(r,
		[]config.Name{config.NLP, config.WTHWPWEC},
		[]int{8, 16, 32})
}

// fig17 reports the wth-wp-wec L1 data-traffic increase and miss-count
// reduction relative to orig.
func fig17(r *Runner) (*stats.Table, error) {
	cs := new(cfgset)
	orig, wec := cs.at8(config.Orig, nil), cs.at8(config.WTHWPWEC, nil)
	g, err := r.runGrid(cs, []sta.Config{orig, wec})
	if err != nil {
		return nil, err
	}
	t := &stats.Table{Header: []string{
		"Benchmark", "L1 traffic increase", "L1 miss reduction",
	}}
	var trafficSum, missSum float64
	for _, b := range Benches() {
		or, we := g.at(b.Short, orig), g.at(b.Short, wec)
		traffic := 100 * (float64(we.Stats.L1DTraffic) - float64(or.Stats.L1DTraffic)) /
			float64(or.Stats.L1DTraffic)
		miss := 100 * (float64(or.Stats.L1DMisses) - float64(we.Stats.L1DMisses)) /
			float64(or.Stats.L1DMisses)
		trafficSum += traffic
		missSum += miss
		t.AddRow(b.Short, fmt.Sprintf("%+.1f%%", traffic), fmt.Sprintf("%+.1f%%", miss))
	}
	n := float64(len(Benches()))
	t.AddRow("average", fmt.Sprintf("%+.1f%%", trafficSum/n), fmt.Sprintf("%+.1f%%", missSum/n))
	return t, nil
}

// ablation isolates the WEC's three roles (DESIGN.md decision 3): wrong
// fill isolation, victim caching, and next-line prefetching on wrong hits.
// Each row disables one role of the full wth-wp-wec configuration.
func ablation(r *Runner) (*stats.Table, error) {
	cs := new(cfgset)
	orig := cs.at8(config.Orig, nil)
	variant := func(label string, mut func(*sta.Config)) speedupRow {
		return speedupRow{label, orig, cs.at8(config.WTHWPWEC, mut)}
	}
	rows := []speedupRow{
		variant("wth-wp-wec (full)", nil),
		variant("  -victim role", func(c *sta.Config) { c.Mem.WECNoVictim = true }),
		variant("  -next-line role", func(c *sta.Config) { c.Mem.WECNoNextLine = true }),
		variant("  -both", func(c *sta.Config) {
			c.Mem.WECNoVictim = true
			c.Mem.WECNoNextLine = true
		}),
	}
	return speedupTable(r, cs, "Config", rows, false)
}

// gainDecomp decomposes where each speculative configuration's gain comes
// from, using the attribution layer: relative speedup over orig at 8 TUs
// beside the classification of every speculative fill (useful, late,
// useless, polluting) and the side buffer's victim-cache hits, summed over
// the benchmark suite. wth-wp fills wrong blocks straight into the L1 (no
// side buffer), nlp prefetches without wrong execution, vc is a victim
// cache alone, and wth-wp-wec combines all three roles.
func gainDecomp(r *Runner) (*stats.Table, error) {
	cs := new(cfgset)
	prevOn, prevTop := r.Attrib, r.AttribTopN
	r.Attrib = true
	defer func() { r.Attrib, r.AttribTopN = prevOn, prevTop }()
	names := []config.Name{config.WTHWP, config.NLP, config.VC, config.WTHWPWEC}
	cfgs := []sta.Config{cs.at8(config.Orig, nil)}
	for _, n := range names {
		cfgs = append(cfgs, cs.at8(n, nil))
	}
	g, err := r.runGrid(cs, cfgs)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{Header: []string{
		"Config", "speedup", "spec fills", "useful", "late", "useless", "polluting", "victim hits",
	}}
	for i, n := range names {
		cfg := cfgs[i+1]
		var col []float64
		var spec, useful, late, useless, polluting, victims uint64
		for _, b := range Benches() {
			or, res := g.at(b.Short, cfgs[0]), g.at(b.Short, cfg)
			rep, err := r.AttribReport(b.Short, cfg)
			if err != nil {
				return nil, err
			}
			col = append(col, stats.Speedup(or.Stats.Cycles, res.Stats.Cycles))
			spec += rep.SpecFills.Total()
			useful += rep.Useful.Total()
			late += rep.Late.Total()
			useless += rep.Useless.Total()
			polluting += rep.Polluting.Total()
			victims += rep.VictimHits
		}
		frac := func(n uint64) string {
			if spec == 0 {
				return fmt.Sprintf("%d", n)
			}
			return fmt.Sprintf("%d (%.0f%%)", n, 100*float64(n)/float64(spec))
		}
		t.AddRow(string(n), avgPct(col),
			fmt.Sprint(spec), frac(useful), frac(late), frac(useless),
			fmt.Sprint(polluting), fmt.Sprint(victims))
	}
	return t, nil
}

// table1 records which of the paper's Table 1 program transformations each
// kernel archetype models (loop coalescing, loop unrolling, statement
// reordering to increase overlap).
func table1(r *Runner) (*stats.Table, error) {
	rows := []struct{ bench, coalescing, unrolling, reordering string }{
		{"175.vpr", " ", "x", "x"},
		{"164.gzip", " ", "x", "x"},
		{"181.mcf", "x", " ", "x"},
		{"197.parser", " ", "x", " "},
		{"183.equake", "x", "x", "x"},
		{"177.mesa", "x", "x", " "},
	}
	t := &stats.Table{Header: []string{"Benchmark", "Loop Coalescing", "Loop Unrolling", "Statement Reordering"}}
	for _, row := range rows {
		t.AddRow(row.bench, row.coalescing, row.unrolling, row.reordering)
	}
	return t, nil
}

// extLatency is the paper's §7 future-work item "the effects of memory
// latency": the orig and wth-wp-wec configurations across DRAM round-trip
// latencies. Longer memories leave more latency for wrong execution to
// hide, so the WEC's edge should grow.
func extLatency(r *Runner) (*stats.Table, error) {
	cs := new(cfgset)
	rows := sweepAgainstOrig(cs, []int{100, 200, 400}, []config.Name{config.WTHWPWEC},
		func(c *sta.Config, lat int) { c.Mem.MemLat = lat },
		func(_ config.Name, lat int) string { return fmt.Sprintf("%d cycles", lat) })
	return speedupTable(r, cs, "Latency", rows, false)
}

// extBlockSize is the paper's §7 future-work item "the effects of the
// block size": WEC speedup with 32/64/128-byte L1 blocks.
func extBlockSize(r *Runner) (*stats.Table, error) {
	cs := new(cfgset)
	rows := sweepAgainstOrig(cs, []int{32, 64, 128}, []config.Name{config.WTHWPWEC},
		func(c *sta.Config, bs int) { c.Mem.L1DBlock = bs },
		func(_ config.Name, bs int) string { return fmt.Sprintf("%dB", bs) })
	return speedupTable(r, cs, "Block", rows, false)
}

// extBpred is the paper's §7 future-work item "the relationship of the
// branch prediction accuracy to the performance of the WEC": the WEC's
// speedup under direction predictors of increasing quality. Worse
// prediction means more wrong-path execution to harvest. The accuracy
// column is orig's mean direction accuracy under each predictor.
func extBpred(r *Runner) (*stats.Table, error) {
	cs := new(cfgset)
	kinds := []bpred.DirKind{bpred.DirTaken, bpred.DirBimodal, bpred.DirGshare, bpred.DirComb}
	rows := sweepAgainstOrig(cs, kinds, []config.Name{config.WTHWPWEC},
		func(c *sta.Config, k bpred.DirKind) { c.Core.Bpred.Dir = k },
		func(_ config.Name, k bpred.DirKind) string { return k.String() })
	return speedupTable(r, cs, "Predictor", rows, true)
}
