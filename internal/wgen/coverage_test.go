package wgen

import (
	"reflect"
	"testing"

	"repro/internal/attrib"
	"repro/internal/stats"
	"repro/internal/xorshift"
)

func TestBin(t *testing.T) {
	edges := []float64{0.1, 0.5, 0.9}
	for _, tc := range []struct {
		x    float64
		want int
	}{{0, 0}, {0.1, 0}, {0.11, 1}, {0.5, 1}, {0.7, 2}, {1.0, 3}} {
		if got := bin(tc.x, edges); got != tc.want {
			t.Errorf("bin(%v) = %d, want %d", tc.x, got, tc.want)
		}
	}
}

func TestItoa(t *testing.T) {
	for _, tc := range []struct {
		v    int
		want string
	}{{0, "0"}, {9, "9"}, {10, "10"}, {41, "41"}, {99, "99"}} {
		if got := itoa(tc.v); got != tc.want {
			t.Errorf("itoa(%d) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

// syntheticRun builds a counter set with known ratios so bucket indices can
// be asserted exactly.
func syntheticRun() (*stats.Sim, *attrib.Report) {
	s := &stats.Sim{
		Cycles: 1000, Commits: 2000, ParCycles: 600, ParCommits: 1500,
		Forks: 40, WrongThreads: 2,
		Branches: 100, Mispredicts: 10, // accuracy 0.90
		L1DAccesses: 1000, L1DMisses: 150, L1DTraffic: 1200, // miss rate 0.15
		L2Accesses: 150, L2Misses: 30, // 0.20
		WrongLoads: 30, WrongPathLoads: 20, WrongThLoads: 10,
		WECHits: 50, WECInserts: 80, PrefIssued: 20, PrefUseful: 5,
	}
	rep := &attrib.Report{
		SpecFills: attrib.OriginCounts{WrongPath: 10, Prefetch: 5},
		Useful:    attrib.OriginCounts{WrongPath: 4},
		Useless:   attrib.OriginCounts{Prefetch: 5},
		Resident:  attrib.OriginCounts{WrongPath: 6},
	}
	return s, rep
}

func TestBucketsDeterministicAndSorted(t *testing.T) {
	s, rep := syntheticRun()
	a := Buckets(s, rep)
	b := Buckets(s, rep)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Buckets is nondeterministic for identical counters")
	}
	if len(a) == 0 {
		t.Fatal("empty signature")
	}
	for i := 1; i < len(a); i++ {
		if a[i-1] >= a[i] {
			t.Fatalf("signature not strictly sorted at %d: %q >= %q", i, a[i-1], a[i])
		}
	}
}

func TestBucketsKnownValues(t *testing.T) {
	s, rep := syntheticRun()
	got := make(map[string]bool)
	for _, b := range Buckets(s, rep) {
		got[b] = true
	}
	for _, want := range []string{
		"l1miss:4",        // 0.15 is above {1,2,5,10}% and at the 20% edge
		"l2miss:4",        // 0.20
		"bracc:2",         // 0.90 accuracy: above 0.70 and 0.85
		"parfrac:3",       // 600/1000, above the 0.10/0.30/0.50 edges
		"tuocc:2",         // 1500/600 = 2.5 occupancy
		"wloadmix:3",      // both wrong-path and wrong-thread loads
		"wth:1",           // wrong threads occurred
		"forks:3",         // 40/2000 = 20 per 1K commits, above the 0.5/2/8 edges
		"fill:0",          // wrong-path useful fills
		"fill:8",          // prefetch useless fills
		"fill:13",         // resident fills
		"fill:14",         // any speculative fill
		"l1miss*bracc:26", // 4*(5+1)+2
	} {
		if !got[want] {
			t.Errorf("signature missing %q; got %v", want, Buckets(s, rep))
		}
	}
	// Nil attribution report: fill buckets are simply absent.
	for _, b := range Buckets(s, nil) {
		if len(b) >= 5 && b[:5] == "fill:" {
			t.Errorf("nil report still produced %q", b)
		}
	}
}

func TestCoverageAccumulates(t *testing.T) {
	c := NewCoverage()
	if got := c.Add([]string{"a:0", "b:1", "a:0"}); got != 2 {
		t.Fatalf("first Add = %d, want 2", got)
	}
	if got := c.Add([]string{"a:0", "b:2"}); got != 1 {
		t.Fatalf("second Add = %d, want 1", got)
	}
	if c.Count() != 3 {
		t.Fatalf("Count = %d, want 3", c.Count())
	}
	if want := []string{"a:0", "b:1", "b:2"}; !reflect.DeepEqual(c.Buckets(), want) {
		t.Fatalf("Buckets = %v, want %v", c.Buckets(), want)
	}
}

func TestUnsaturatedShrinks(t *testing.T) {
	c := NewCoverage()
	before := len(c.Unsaturated())
	if before != len(Dimensions()) {
		t.Fatalf("empty coverage should leave all %d dimensions unsaturated, got %d", len(Dimensions()), before)
	}
	// Saturate the two-bin "wth" dimension.
	c.Add([]string{"wth:0", "wth:1"})
	after := c.Unsaturated()
	if len(after) != before-1 {
		t.Fatalf("saturating wth left %d dimensions, want %d", len(after), before-1)
	}
	for _, d := range after {
		if d.Name == "wth" {
			t.Fatal("wth still reported unsaturated")
		}
	}
}

func TestDimensionKnobsResolve(t *testing.T) {
	// Every knob name a dimension steers must be understood by mutateKnob:
	// mutating it must be able to change the genome.
	for _, d := range Dimensions() {
		for _, knob := range d.Knobs {
			changed := false
			for attempt := uint64(0); attempt < 64 && !changed; attempt++ {
				g := Random(1000 + attempt)
				r := xorshift.New(attempt*2654435761 + 7)
				before := g
				mutateKnob(&g, knob, r)
				if g.normalize() != before {
					changed = true
				}
			}
			if !changed {
				t.Errorf("dimension %s: knob %q never changes the genome (unknown name?)", d.Name, knob)
			}
		}
	}
}
