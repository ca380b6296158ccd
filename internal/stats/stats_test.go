package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestIPC(t *testing.T) {
	s := &Sim{Cycles: 100, Commits: 250}
	if s.IPC() != 2.5 {
		t.Errorf("IPC = %g", s.IPC())
	}
	if (&Sim{}).IPC() != 0 {
		t.Error("zero-cycle IPC should be 0")
	}
}

func TestMissRate(t *testing.T) {
	s := &Sim{L1DAccesses: 200, L1DMisses: 50}
	if s.L1DMissRate() != 0.25 {
		t.Errorf("miss rate = %g", s.L1DMissRate())
	}
	if (&Sim{}).L1DMissRate() != 0 {
		t.Error("zero-access miss rate should be 0")
	}
}

func TestBranchAccuracy(t *testing.T) {
	s := &Sim{Branches: 100, Mispredicts: 8}
	if s.BranchAccuracy() != 0.92 {
		t.Errorf("accuracy = %g", s.BranchAccuracy())
	}
	if (&Sim{}).BranchAccuracy() != 1 {
		t.Error("no-branch accuracy should be 1")
	}
}

func TestAdd(t *testing.T) {
	a := &Sim{Cycles: 1, Commits: 2, L1DMisses: 3, WECHits: 4}
	b := &Sim{Cycles: 10, Commits: 20, L1DMisses: 30, WECHits: 40}
	a.Add(b)
	if a.Cycles != 11 || a.Commits != 22 || a.L1DMisses != 33 || a.WECHits != 44 {
		t.Errorf("Add result = %+v", a)
	}
}

func TestSpeedup(t *testing.T) {
	if Speedup(200, 100) != 2 {
		t.Error("2x speedup wrong")
	}
	if RelativeSpeedupPct(110, 100) != 10.000000000000009 &&
		math.Abs(RelativeSpeedupPct(110, 100)-10) > 1e-9 {
		t.Errorf("relative pct = %g", RelativeSpeedupPct(110, 100))
	}
	if Speedup(100, 0) != 0 {
		t.Error("zero-cycle speedup should be 0")
	}
}

func TestWeightedAverageSpeedup(t *testing.T) {
	// Equal speedups: average equals them.
	if got := WeightedAverageSpeedup([]float64{2, 2, 2}); math.Abs(got-2) > 1e-12 {
		t.Errorf("uniform average = %g", got)
	}
	// Harmonic mean of {1, 3}: 2/(1 + 1/3) = 1.5.
	if got := WeightedAverageSpeedup([]float64{1, 3}); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("average = %g, want 1.5", got)
	}
	if WeightedAverageSpeedup(nil) != 0 {
		t.Error("empty input should give 0")
	}
	if WeightedAverageSpeedup([]float64{1, 0}) != 0 {
		t.Error("non-positive speedup should give 0")
	}
}

func TestWeightedAverageBounds(t *testing.T) {
	// The weighted average always lies between min and max speedup.
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		sp := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			sp[i] = 0.5 + float64(r)/64
			lo = math.Min(lo, sp[i])
			hi = math.Max(hi, sp[i])
		}
		avg := WeightedAverageSpeedup(sp)
		return avg >= lo-1e-9 && avg <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{Header: []string{"bench", "speedup"}}
	tbl.AddRow("mcf", "+18.5%")
	tbl.AddRow("vpr", "+3.0%")
	out := tbl.String()
	if !strings.Contains(out, "bench") || !strings.Contains(out, "+18.5%") {
		t.Errorf("table output missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Errorf("table has %d lines, want 4", len(lines))
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[string]int{"c": 1, "a": 2, "b": 3}
	got := SortedKeys(m)
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Errorf("SortedKeys = %v", got)
	}
}

func TestPct(t *testing.T) {
	if Pct(9.73) != "+9.7%" {
		t.Errorf("Pct = %q", Pct(9.73))
	}
	if Pct(-1.5) != "-1.5%" {
		t.Errorf("Pct = %q", Pct(-1.5))
	}
}

func TestTableCSV(t *testing.T) {
	tbl := &Table{Header: []string{"a", "b"}}
	tbl.AddRow("x,y", `q"r`)
	tbl.AddRow("plain", "2")
	got := tbl.CSV()
	want := "a,b\n\"x,y\",\"q\"\"r\"\nplain,2\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

func TestTableJSON(t *testing.T) {
	tbl := &Table{Header: []string{"a"}}
	tbl.AddRow("1")
	got, err := tbl.JSON()
	if err != nil {
		t.Fatal(err)
	}
	want := `{"header":["a"],"rows":[["1"]]}`
	if got != want {
		t.Errorf("JSON = %s, want %s", got, want)
	}
}

func TestBootstrapDeterministic(t *testing.T) {
	xs := []float64{0.01, -0.02, 0.03, -0.04, 0.05}
	mean := (0.01 - 0.02 + 0.03 - 0.04 + 0.05) / 5
	lo1, hi1 := BootstrapCI(xs, 5000, 7, 0.95)
	lo2, hi2 := BootstrapCI(xs, 5000, 7, 0.95)
	if lo1 != lo2 || hi1 != hi2 {
		t.Errorf("same seed produced different intervals: [%g,%g] vs [%g,%g]", lo1, hi1, lo2, hi2)
	}
	if lo1 > hi1 {
		t.Errorf("inverted interval [%g, %g]", lo1, hi1)
	}
	if mean < lo1 || mean > hi1 {
		t.Errorf("interval [%g, %g] does not cover the sample mean %g", lo1, hi1, mean)
	}
}
