package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// spec names one reported metric. The end-to-end and per-layer tables
// below are the benchmark's whole output vocabulary; BENCHMARK.json lists
// the same names and units (the package test holds the two in step).
type spec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Moves says which end-to-end metric, on which workloads, a change in
	// this layer metric should move. End-to-end specs leave it empty.
	Moves string `json:"-"`
}

// endToEnd is what a user of the simulator sees, measured with tracing
// off. Every value is nonzero by construction: success_rate stands in for
// the error rate (which is 0 on healthy workloads); the error rate itself
// is a per-layer metric.
var endToEnd = []spec{
	{Name: "wall_s", Unit: "s", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "minst_per_s", Unit: "Minst/s", Better: "higher"},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "op_ms_tail", Unit: "ms", Better: "lower"},
	{Name: "success_rate", Unit: "frac", Better: "higher"},
	{Name: "alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "paper_err_pp", Unit: "pp", Better: "lower"},
}

// pkgLayers are the simulator packages a CPU-profile sample's leaf frame
// is charged to by name; cpuLayers adds the runtime buckets and the rest.
var (
	pkgLayers = []string{
		"core", "mem", "cache", "bpred", "isa", "sta", "interp", "sample", "stats",
		"attrib", "harness", "runstore", "workload",
	}
	cpuLayers = append(append([]string(nil), pkgLayers...), "gc", "sched", "syscall", "other")
)

// cpuMoves predicts, per CPU layer, the end-to-end metric it should move.
var cpuMoves = map[string]string{
	"core":     "wall_s/minst_per_s on oneshot-8tu and suite-detailed; little on suite-sampled",
	"isa":      "wall_s/minst_per_s on oneshot-8tu and suite-detailed; little on suite-sampled",
	"mem":      "op_ms_*/wall_s on oneshot-8tu (timing path) and wall_s on suite-sampled (warming path)",
	"cache":    "op_ms_*/wall_s on oneshot-8tu (timing path) and wall_s on suite-sampled (warming path)",
	"bpred":    "wall_s on oneshot-8tu and suite-detailed; warming share of wall_s on suite-sampled",
	"sta":      "op_ms_*/wall_s on oneshot-8tu; no change predicted on either suite",
	"sched":    "op_ms_*/wall_s on oneshot-8tu; no change predicted on either suite",
	"interp":   "wall_s on suite-sampled and setup_s on every workload",
	"sample":   "wall_s on suite-sampled",
	"stats":    "wall_s on suite-sampled",
	"attrib":   "wall_s on suite-detailed and suite-sampled (gain cells)",
	"harness":  "wall_s on suite-detailed",
	"runstore": "wall_s on suite-detailed",
	"syscall":  "wall_s on suite-detailed",
	"workload": "setup_s on every workload",
	"gc":       "alloc_mb, peak_rss_mb and wall_s on every workload",
	"other":    "wall_s on every workload",
}

// countMoves is the prediction shared by every simulated-statistics count:
// a perf-only change must leave them bit-identical; a model change moves
// paper_err_pp.
const countMoves = "paper_err_pp on every workload; must stay bit-identical under a perf-only change"

// statCounts are the sta.Result.Stats counters reported per job, in order.
var statCounts = []string{
	"sta.cycles", "sta.forks", "sta.aborts", "sta.wrong_threads",
	"core.commits", "core.mispredicts", "core.wrong_path_loads",
	"mem.l1d_accesses", "mem.l1d_misses", "mem.wec_hits", "mem.wec_inserts",
	"mem.wrong_useful", "mem.wrong_loads", "mem.l2_misses", "mem.dram_fills",
	"sample.ff_insts",
}

// perLayer assembles the per-layer table: CPU split, spans, counts,
// ratios with their bases, and the trace run's own bookkeeping.
func perLayer() []spec {
	var out []spec
	for _, l := range cpuLayers {
		out = append(out, spec{Name: l + ".cpu_s", Unit: "s", Better: "lower", Moves: cpuMoves[l]})
	}
	out = append(out,
		spec{Name: "cpu.total_s", Unit: "s", Better: "lower", Moves: "base of every <layer>.cpu_s; wall_s on every workload"},
		spec{Name: "sched.cpu_frac", Unit: "frac", Better: "lower", Moves: "op_ms_*/wall_s on oneshot-8tu (base: cpu.total_s)"},
		spec{Name: "workload.build_ms", Unit: "ms", Better: "lower", Moves: "setup_s on every workload"},
		spec{Name: "interp.run_ms", Unit: "ms", Better: "lower", Moves: "setup_s on every workload"},
		spec{Name: "interp.minst_per_s", Unit: "Minst/s", Better: "higher", Moves: "setup_s on every workload; wall_s on suite-sampled"},
		spec{Name: "sta.new_ms", Unit: "ms", Better: "lower", Moves: "op_ms_* on oneshot-8tu"},
		spec{Name: "runstore.put_ms", Unit: "ms", Better: "lower", Moves: "wall_s on suite-detailed"},
		spec{Name: "harness.ledger_append_ms", Unit: "ms", Better: "lower", Moves: "wall_s on suite-detailed"},
	)
	for _, c := range statCounts {
		out = append(out, spec{Name: c, Unit: "count", Better: "higher", Moves: countMoves})
	}
	out = append(out,
		spec{Name: "mem.wec_useful_frac", Unit: "frac", Better: "higher", Moves: "paper_err_pp and minst_per_s (base: mem.wrong_loads)"},
		spec{Name: "sta.ns_per_cycle", Unit: "ns", Better: "lower", Moves: "wall_s/minst_per_s on oneshot-8tu and suite-detailed (base: sta.cycles)"},
		spec{Name: "core.ns_per_commit", Unit: "ns", Better: "lower", Moves: "wall_s/minst_per_s on oneshot-8tu and suite-detailed (base: core.commits)"},
		spec{Name: "error_rate", Unit: "frac", Better: "lower", Moves: "success_rate on the same workload"},
		spec{Name: "op.samples", Unit: "count", Better: "higher", Moves: "the percentile op_ms_tail can report"},
		spec{Name: "op.tail_pct", Unit: "pct", Better: "higher", Moves: "which percentile op_ms_tail is"},
		spec{Name: "host.nproc", Unit: "count", Better: "higher", Moves: "every timing: the CPU budget all workloads run at"},
		spec{Name: "trace.wall_s", Unit: "s", Better: "lower", Moves: "base of trace.overhead_s"},
		spec{Name: "trace.overhead_s", Unit: "s", Better: "lower", Moves: "none: traced minus untraced wall_s"},
	)
	return out
}

// units maps every metric name to its unit.
func units() map[string]string {
	m := make(map[string]string)
	for _, s := range endToEnd {
		m[s.Name] = s.Unit
	}
	for _, s := range perLayer() {
		m[s.Name] = s.Unit
	}
	return m
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder lists the percentiles op_ms_tail may report, highest last.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// tail returns the highest ladder percentile that leaves at least ten
// samples beyond it (nearest-rank), with its value. Too few samples fall
// back to the median.
func tail(xs []float64) (pct, value float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 50, math.NaN()
	}
	pct, idx := 50.0, rank(50, n)
	for _, p := range tailLadder {
		if i := rank(p, n); n-i >= 10 {
			pct, idx = p, i
		}
	}
	return pct, s[idx-1]
}

// rank is the 1-based nearest-rank index of percentile p over n samples.
func rank(p float64, n int) int {
	i := int(math.Ceil(p / 100 * float64(n)))
	if i < 1 {
		i = 1
	}
	return i
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB, falling
// back to the runtime's view of memory obtained from the OS.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
