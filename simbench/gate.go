package main

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/stats"
)

// checkOp is the benchmark's correctness gate for one simulation: the
// machine's memory checksum and integer register file must equal the
// functional interpreter's, and the statistics must satisfy their
// cross-counter invariants. Registers the machine holds as
// core.PoisonValue are skipped: no FORK mask ever transferred them to the
// halting thread, so their architectural value is undefined there (memory
// is the architectural contract; see sta's TestSamplingArchitecturallyExact).
// A nil regs skips the register comparison (archived cells written without
// a register snapshot).
func checkOp(memCheck uint64, regs []int64, st *stats.Sim, ref *interp.Result) error {
	if memCheck != ref.MemCheck {
		return fmt.Errorf("memory checksum %#x, reference %#x", memCheck, ref.MemCheck)
	}
	if regs != nil {
		if len(regs) != len(ref.IntRegs) {
			return fmt.Errorf("register file has %d registers, reference %d", len(regs), len(ref.IntRegs))
		}
		for i, v := range regs {
			if v != ref.IntRegs[i] && v != core.PoisonValue {
				return fmt.Errorf("r%d = %d, reference %d", i, v, ref.IntRegs[i])
			}
		}
	}
	return st.CheckInvariants()
}

// counts accumulates the simulated statistics of a job's completed ops.
type counts struct {
	sim     stats.Sim
	ffInsts uint64
}

func (c *counts) add(s *stats.Sim) {
	c.sim.Add(s)
	if s.Sampled != nil {
		c.ffInsts += s.Sampled.FFInsts
	}
}

// values renders the counts under their statCounts names.
func (c *counts) values() map[string]float64 {
	s := &c.sim
	return map[string]float64{
		"sta.cycles":            float64(s.Cycles),
		"sta.forks":             float64(s.Forks),
		"sta.aborts":            float64(s.Aborts),
		"sta.wrong_threads":     float64(s.WrongThreads),
		"core.commits":          float64(s.Commits),
		"core.mispredicts":      float64(s.Mispredicts),
		"core.wrong_path_loads": float64(s.WrongPathLoads),
		"mem.l1d_accesses":      float64(s.L1DAccesses),
		"mem.l1d_misses":        float64(s.L1DMisses),
		"mem.wec_hits":          float64(s.WECHits),
		"mem.wec_inserts":       float64(s.WECInserts),
		"mem.wrong_useful":      float64(s.WrongUseful),
		"mem.wrong_loads":       float64(s.WrongLoads),
		"mem.l2_misses":         float64(s.L2Misses),
		"mem.dram_fills":        float64(s.MemAccesses),
		"sample.ff_insts":       float64(c.ffInsts),
	}
}

// paperFig11 is the paper column of EXPERIMENTS.md's Fig. 11 table
// (average relative speedup at 8 TUs, percent). Ranges use their midpoint
// ("~0–1%" is 0.5) and bounds their stated value ("≤ +2.2%" is 2.2);
// wth-wp-vc carries no number ("< wec") and is left out.
var paperFig11 = []struct {
	config string
	pct    float64
}{
	{"vc", 1.0},
	{"wp", 0.5},
	{"wth", 0.5},
	{"wth-wp", 2.2},
	{"wth-wp-wec", 9.7},
	{"nlp", 5.5},
}

// paperFig11Map renders paperFig11 for the run's info line.
func paperFig11Map() map[string]float64 {
	m := make(map[string]float64, len(paperFig11))
	for _, p := range paperFig11 {
		m[p.config] = p.pct
	}
	return m
}

// paperErr is the mean absolute gap, in percentage points, between the
// measured Fig. 11 averages and paperFig11 over the configurations given.
// speedups maps a configuration to its per-benchmark speedups over orig.
func paperErr(speedups map[string][]float64) (float64, error) {
	var sum float64
	var n int
	for _, p := range paperFig11 {
		col, ok := speedups[p.config]
		if !ok {
			continue
		}
		sum += math.Abs((stats.WeightedAverageSpeedup(col)-1)*100 - p.pct)
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("no Fig. 11 configuration measured")
	}
	return sum / float64(n), nil
}
