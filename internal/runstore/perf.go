package runstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// The perf-report comparator: the schema perfbench writes, how reports and
// history snapshots load, and the regression gate. perfbench -check and
// simql diff -perf both call it, so the two cannot disagree.

// PerfEntry is one perfbench measurement.
type PerfEntry struct {
	Name            string  `json:"name"`
	NsPerOp         float64 `json:"ns_per_op"`
	AllocsPerOp     int64   `json:"allocs_per_op"`
	BytesPerOp      int64   `json:"bytes_per_op"`
	SimCyclesPerOp  float64 `json:"sim_cycles_per_op"`
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec"`
	Runs            int     `json:"runs"`
}

// PerfReport is a perfbench report (BENCH_speed.json, the committed
// baseline, or a history snapshot).
type PerfReport struct {
	Generated string `json:"generated"`
	GoVersion string `json:"go_version"`
	HostCPUs  int    `json:"host_cpus"`
	// GoMaxProcs is the CPU budget the measurements ran under (the
	// ambient default; perfbench never pins it). It is recorded, not
	// compared: the gated metrics do not depend on it.
	GoMaxProcs int         `json:"gomaxprocs"`
	Results    []PerfEntry `json:"results"`
	// SuiteWallSeconds is the wall time of one full `experiments -run all`
	// regeneration at scale 1 (only measured with perfbench -suite).
	SuiteWallSeconds float64 `json:"suite_wall_seconds,omitempty"`
}

// LoadPerf reads a perf report from a file, or the lexically latest *.json
// snapshot when path is a directory (history snapshots are named by UTC
// timestamp, so lexical order is chronological order). It also returns the
// file it read.
func LoadPerf(path string) (*PerfReport, string, error) {
	if st, err := os.Stat(path); err == nil && st.IsDir() {
		glob, err := filepath.Glob(filepath.Join(path, "*.json"))
		if err != nil || len(glob) == 0 {
			return nil, "", fmt.Errorf("runstore: no perf snapshots in %s", path)
		}
		sort.Strings(glob)
		path = glob[len(glob)-1]
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	var r PerfReport
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	return &r, path, nil
}

// ComparePerf reports every regression of cur against base beyond the
// relative tolerance tol, one line each. Allocations and simulated cycle
// counts are deterministic, so they are always gated; wall time only when
// strict is set. Entries present in only one report are skipped.
func ComparePerf(base, cur *PerfReport, tol float64, strict bool) []string {
	byName := make(map[string]PerfEntry, len(base.Results))
	for _, e := range base.Results {
		byName[e.Name] = e
	}
	var bad []string
	for _, e := range cur.Results {
		b, ok := byName[e.Name]
		if !ok {
			continue
		}
		worse := func(metric string, now, then float64) {
			if then > 0 && now > then*(1+tol) {
				bad = append(bad, fmt.Sprintf("%s: %s regressed %.1f%% (%.0f -> %.0f)",
					e.Name, metric, (now/then-1)*100, then, now))
			}
		}
		worse("allocs/op", float64(e.AllocsPerOp), float64(b.AllocsPerOp))
		worse("sim-cycles/op", e.SimCyclesPerOp, b.SimCyclesPerOp)
		if strict {
			worse("ns/op", e.NsPerOp, b.NsPerOp)
		}
	}
	return bad
}

// PerfHostWarning returns a warning when the two reports were measured on
// hosts with different CPU counts ("" otherwise). That leaves the gated
// deterministic metrics valid but makes wall-clock deltas indicative only.
func PerfHostWarning(base, cur *PerfReport) string {
	if base.HostCPUs == 0 || cur.HostCPUs == 0 || base.HostCPUs == cur.HostCPUs {
		return ""
	}
	return fmt.Sprintf("warning: baseline measured on a %d-CPU host, this report on %d; "+
		"wall-clock (ns/op) comparisons are indicative only", base.HostCPUs, cur.HostCPUs)
}
