package runstore

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func perfReport(procs int, e PerfEntry) *PerfReport {
	return &PerfReport{HostCPUs: 2, GoMaxProcs: procs, Results: []PerfEntry{e}}
}

// TestComparePerfGates pins the perf gate shared by perfbench -check and
// simql diff -perf: allocs/op and sim-cycles/op always gate, ns/op only
// under strict, and a different GOMAXPROCS alone never fails.
func TestComparePerfGates(t *testing.T) {
	base := PerfEntry{Name: "sim/x", NsPerOp: 1000, AllocsPerOp: 100, SimCyclesPerOp: 5000}
	cases := []struct {
		name   string
		mut    func(*PerfEntry)
		strict bool
		want   string // substring of the single regression line; "" = none
	}{
		{"identical", func(*PerfEntry) {}, true, ""},
		{"allocs", func(e *PerfEntry) { e.AllocsPerOp = 120 }, false, "allocs/op"},
		{"cycles", func(e *PerfEntry) { e.SimCyclesPerOp = 6000 }, false, "sim-cycles/op"},
		{"ns lax", func(e *PerfEntry) { e.NsPerOp = 5000 }, false, ""},
		{"ns strict", func(e *PerfEntry) { e.NsPerOp = 5000 }, true, "ns/op"},
		{"within tolerance", func(e *PerfEntry) { e.AllocsPerOp = 105 }, true, ""},
		{"faster", func(e *PerfEntry) { e.NsPerOp, e.AllocsPerOp = 10, 1 }, true, ""},
	}
	for _, c := range cases {
		cur := base
		c.mut(&cur)
		bad := ComparePerf(perfReport(1, base), perfReport(1, cur), 0.10, c.strict)
		switch {
		case c.want == "" && len(bad) != 0:
			t.Errorf("%s: unexpected regressions %v", c.name, bad)
		case c.want != "" && (len(bad) != 1 || !strings.Contains(bad[0], c.want)):
			t.Errorf("%s: regressions %v, want one naming %s", c.name, bad, c.want)
		}
	}
	for _, strict := range []bool{false, true} {
		if bad := ComparePerf(perfReport(1, base), perfReport(2, base), 0.10, strict); len(bad) != 0 {
			t.Errorf("strict=%v: GOMAXPROCS-only difference failed the gate: %v", strict, bad)
		}
	}
	if bad := ComparePerf(perfReport(1, base), perfReport(1, PerfEntry{Name: "sim/other", AllocsPerOp: 1e6}), 0.10, true); len(bad) != 0 {
		t.Errorf("entry missing from the baseline was gated: %v", bad)
	}
}

func TestLoadPerfHistoryDir(t *testing.T) {
	dir := t.TempDir()
	for i, stamp := range []string{"2026-01-02T00-00-00Z", "2026-01-01T00-00-00Z"} {
		raw, err := json.Marshal(PerfReport{Generated: stamp, GoMaxProcs: i + 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, stamp+".json"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rep, file, err := LoadPerf(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Generated != "2026-01-02T00-00-00Z" || filepath.Base(file) != "2026-01-02T00-00-00Z.json" {
		t.Errorf("loaded %s from %s, want the latest snapshot", rep.Generated, file)
	}
	if _, _, err := LoadPerf(t.TempDir()); err == nil {
		t.Error("empty history directory loaded")
	}
}
