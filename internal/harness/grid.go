package harness

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/simerr"
	"repro/internal/sta"
	"repro/internal/stats"
)

// An experiment declares its grid once: the machine configurations every
// benchmark runs on. runGrid derives the job list from that declaration,
// runs it as one batch, and hands back a grid the experiment renders its
// table from. The helpers below cover the recurring table shapes, each
// deriving its configurations from the same row or column spec it renders.

// cfgset builds the machine configurations one experiment sweeps over,
// accumulating the first construction error instead of panicking; runGrid
// checks Err before any simulation runs.
type cfgset struct{ err error }

func (cs *cfgset) note(err error) {
	if cs.err == nil && err != nil {
		cs.err = err
	}
}

// Err returns the first configuration-construction error, classified into
// the taxonomy.
func (cs *cfgset) Err() error {
	if cs.err == nil {
		return nil
	}
	return simerr.Classify("harness.config", cs.err, simerr.BadProgram)
}

// main builds the main machine with tus thread units in the named
// configuration.
func (cs *cfgset) main(name config.Name, tus int) sta.Config {
	cfg := config.Main(tus)
	cs.note(config.Apply(name, &cfg))
	return cfg
}

// at8 builds an 8-TU machine in the named configuration, applying mut to
// the base machine first.
func (cs *cfgset) at8(name config.Name, mut func(*sta.Config)) sta.Config {
	cfg := config.Main(8)
	if mut != nil {
		mut(&cfg)
	}
	cs.note(config.Apply(name, &cfg))
	return cfg
}

// grid holds one experiment's simulated cells by memo key.
type grid struct {
	r   *Runner
	res map[string]*sta.Result
}

// runGrid simulates every benchmark on every configuration in cfgs as one
// batch, bench-major in cfgs order. A cell repeated (by memo key) runs
// once, at its first position. A failed cell fails the experiment with
// batch's *SuiteError.
func (r *Runner) runGrid(cs *cfgset, cfgs []sta.Config) (*grid, error) {
	if err := cs.Err(); err != nil {
		return nil, err
	}
	g := &grid{r: r, res: make(map[string]*sta.Result)}
	var jobs []job
	for _, b := range Benches() {
		for _, cfg := range cfgs {
			if k := r.key(b.Short, cfg); !declared(g.res, k) {
				g.res[k] = nil // filled once the batch has run
				jobs = append(jobs, job{b.Short, cfg})
			}
		}
	}
	if err := r.batch(jobs); err != nil {
		return nil, err
	}
	r.mu.Lock()
	for k := range g.res {
		g.res[k] = r.results[k]
	}
	r.mu.Unlock()
	return g, nil
}

// at returns a declared cell's result. Asking for a cell the experiment
// did not declare is a programming error, so it panics rather than
// simulating outside the batch.
func (g *grid) at(bench string, cfg sta.Config) *sta.Result {
	k := g.r.key(bench, cfg)
	if !declared(g.res, k) {
		panic(fmt.Sprintf("harness: cell %s/%s is not in the experiment's grid", bench, shortKey(k)))
	}
	return g.res[k]
}

func declared(res map[string]*sta.Result, k string) bool {
	_, ok := res[k]
	return ok
}

// benchHeader is a table header with one column per benchmark between the
// label column and any trailing summary columns.
func benchHeader(label string, tail ...string) []string {
	hdr := []string{label}
	for _, b := range Benches() {
		hdr = append(hdr, b.Short)
	}
	return append(hdr, tail...)
}

// avgPct renders the weighted-average speedup of a column as a relative
// percentage.
func avgPct(speedups []float64) string {
	return stats.Pct((stats.WeightedAverageSpeedup(speedups) - 1) * 100)
}

// speedupRow is one row of a speedup table: cfg's speedup over base.
type speedupRow struct {
	label     string
	base, cfg sta.Config
}

// speedupTable renders one row per spec row and one column per benchmark,
// each cell the row configuration's relative speedup over its base, plus a
// weighted-average column. With accuracy set, a last column reports the
// base configuration's mean branch-prediction accuracy. The grid is every
// row's base and configuration, in row order.
func speedupTable(r *Runner, cs *cfgset, label string, rows []speedupRow, accuracy bool) (*stats.Table, error) {
	var cfgs []sta.Config
	for _, row := range rows {
		cfgs = append(cfgs, row.base, row.cfg)
	}
	g, err := r.runGrid(cs, cfgs)
	if err != nil {
		return nil, err
	}
	hdr := benchHeader(label, "average")
	if accuracy {
		hdr = append(hdr, "accuracy")
	}
	t := &stats.Table{Header: hdr}
	for _, row := range rows {
		cells := []string{row.label}
		var col []float64
		var accSum float64
		for _, b := range Benches() {
			base, res := g.at(b.Short, row.base), g.at(b.Short, row.cfg)
			col = append(col, stats.Speedup(base.Stats.Cycles, res.Stats.Cycles))
			accSum += base.Stats.BranchAccuracy()
			cells = append(cells, stats.Pct(stats.RelativeSpeedupPct(base.Stats.Cycles, res.Stats.Cycles)))
		}
		cells = append(cells, avgPct(col))
		if accuracy {
			cells = append(cells, fmt.Sprintf("%.1f%%", 100*accSum/float64(len(Benches()))))
		}
		t.AddRow(cells...)
	}
	return t, nil
}

// benchCol is one column of a per-benchmark table: cfg's speedup over base.
type benchCol struct {
	header    string
	base, cfg sta.Config
}

// benchTable renders one row per benchmark and one column per spec column,
// each cell the column configuration's relative speedup over its base,
// plus a weighted-average row when average is set. The grid is order
// followed by every column's base and configuration, in column order;
// order only fixes the job sequence of cells the columns name.
func benchTable(r *Runner, cs *cfgset, cols []benchCol, average bool, order ...sta.Config) (*stats.Table, error) {
	cfgs := order
	for _, c := range cols {
		cfgs = append(cfgs, c.base, c.cfg)
	}
	g, err := r.runGrid(cs, cfgs)
	if err != nil {
		return nil, err
	}
	hdr := []string{"Benchmark"}
	for _, c := range cols {
		hdr = append(hdr, c.header)
	}
	t := &stats.Table{Header: hdr}
	perCol := make([][]float64, len(cols))
	for _, b := range Benches() {
		cells := []string{b.Short}
		for i, c := range cols {
			base, res := g.at(b.Short, c.base), g.at(b.Short, c.cfg)
			perCol[i] = append(perCol[i], stats.Speedup(base.Stats.Cycles, res.Stats.Cycles))
			cells = append(cells, stats.Pct(stats.RelativeSpeedupPct(base.Stats.Cycles, res.Stats.Cycles)))
		}
		t.AddRow(cells...)
	}
	if average {
		avg := []string{"average"}
		for _, col := range perCol {
			avg = append(avg, avgPct(col))
		}
		t.AddRow(avg...)
	}
	return t, nil
}

// normalizedSweep sweeps one 8-TU cache size (set receives it in bytes)
// for orig and wth-wp-wec: one row per (configuration, size), one column
// per benchmark, each cell the execution time normalized to orig at the
// first size. The grid runs size-major, orig before wth-wp-wec.
func normalizedSweep(r *Runner, kbs []int, set func(c *sta.Config, bytes int)) (*stats.Table, error) {
	cs := new(cfgset)
	names := []config.Name{config.Orig, config.WTHWPWEC}
	cfgs := make([]sta.Config, 0, len(kbs)*len(names))
	for _, kb := range kbs {
		for _, name := range names {
			cfgs = append(cfgs, cs.at8(name, func(c *sta.Config) { set(c, kb*1024) }))
		}
	}
	g, err := r.runGrid(cs, cfgs)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{Header: benchHeader("Config")}
	for i, name := range names {
		for j, kb := range kbs {
			cells := []string{fmt.Sprintf("%s %dk", name, kb)}
			for _, b := range Benches() {
				base, res := g.at(b.Short, cfgs[0]), g.at(b.Short, cfgs[j*len(names)+i])
				cells = append(cells, fmt.Sprintf("%.3f",
					float64(res.Stats.Cycles)/float64(base.Stats.Cycles)))
			}
			t.AddRow(cells...)
		}
	}
	return t, nil
}
