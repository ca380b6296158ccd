package workload

import (
	"math"
	"testing"

	"repro/internal/interp"
	"repro/internal/isa"
	"repro/internal/memimg"
	"repro/internal/xorshift"
)

func runInterp(t *testing.T, w *Workload, scale int) (*isa.Program, *interp.Result) {
	t.Helper()
	p, err := w.Build(scale)
	if err != nil {
		t.Fatal(err)
	}
	r, err := interp.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	return p, r
}

func words(img *memimg.Image, base uint64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = img.ReadWord(base + uint64(8*i))
	}
	return out
}

func TestAllWorkloadsBuildAndRun(t *testing.T) {
	for _, w := range All() {
		t.Run(w.Short, func(t *testing.T) {
			p, r := runInterp(t, w, 1)
			if r.Insts < 10000 {
				t.Errorf("%s: only %d dynamic instructions", w.Short, r.Insts)
			}
			if r.Forks == 0 {
				t.Errorf("%s: no forks — parallel region missing", w.Short)
			}
			if r.MemCheck == 0 {
				t.Errorf("%s: zero memory checksum", w.Short)
			}
			if _, ok := p.Symbols["result"]; !ok {
				t.Errorf("%s: missing result symbol", w.Short)
			}
			res := r.Mem.ReadWord(uint64(p.Symbols["result"]))
			if res == 0 {
				t.Errorf("%s: result is zero (kernel likely computing nothing)", w.Short)
			}
		})
	}
}

func TestMcfReference(t *testing.T) {
	w := Mcf()
	p, r := runInterp(t, w, 1)
	want := McfReference(1)
	got := words(r.Mem, uint64(p.Symbols["out"]), len(want))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("out[%d] = %d, reference %d", i, got[i], want[i])
		}
	}
}

func TestParserReference(t *testing.T) {
	w := Parser()
	p, r := runInterp(t, w, 1)
	want := ParserReference(1)
	got := words(r.Mem, uint64(p.Symbols["out"]), len(want))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("out[%d] = %d, reference %d", i, got[i], want[i])
		}
	}
}

func TestMesaReference(t *testing.T) {
	w := Mesa()
	p, r := runInterp(t, w, 1)
	want := MesaReference(1)
	n := mesaDefaults(1).Windows * mesaDefaults(1).Window * mesaDefaults(1).Tile
	got := words(r.Mem, uint64(p.Symbols["fb"]), n)
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			t.Fatalf("fb[%d] = %d, reference %d", i, got[i], want[i])
		}
	}
}

func TestGzipReference(t *testing.T) {
	w := Gzip()
	p, r := runInterp(t, w, 1)
	want := GzipReference(1)
	got := words(r.Mem, uint64(p.Symbols["out"]), len(want))
	nonzero := 0
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("out[%d] = %d, reference %d", i, got[i], want[i])
		}
		if want[i] > 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Error("gzip never found a match; data not text-like enough")
	}
}

func TestVprReference(t *testing.T) {
	w := Vpr()
	p, r := runInterp(t, w, 1)
	want := VprReference(1)
	got := words(r.Mem, uint64(p.Symbols["out"]), len(want))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("out[%d] = %d, reference %d", i, got[i], want[i])
		}
	}
}

func TestEquakeReference(t *testing.T) {
	w := Equake()
	p, r := runInterp(t, w, 1)
	want := EquakeReference(1)
	base := uint64(p.Symbols["y"])
	for i := range want {
		got := r.Mem.ReadFloat(base + uint64(8*i))
		if got != want[i] {
			t.Fatalf("y[%d] = %g, reference %g", i, got, want[i])
		}
	}
	// The result word is the truncated sum.
	res := r.Mem.ReadWord(uint64(p.Symbols["result"]))
	if res != equakeSum(want) {
		t.Errorf("result = %d, reference %d", res, equakeSum(want))
	}
}

func TestParallelFractions(t *testing.T) {
	// Table 2 calibration bands: fractions need not be exact, but each
	// kernel must land in the neighbourhood of its SPEC counterpart.
	bands := map[string][2]float64{
		"vpr":    {0.04, 0.16}, // paper: 8.6%
		"gzip":   {0.08, 0.26}, // 15.7%
		"mcf":    {0.24, 0.50}, // 36.1%
		"parser": {0.09, 0.28}, // 17.2%
		"equake": {0.12, 0.33}, // 21.3%
		"mesa":   {0.09, 0.28}, // 17.3%
	}
	for _, w := range All() {
		t.Run(w.Short, func(t *testing.T) {
			_, r := runInterp(t, w, 1)
			frac := float64(r.ParInsts) / float64(r.Insts)
			band := bands[w.Short]
			if frac < band[0] || frac > band[1] {
				t.Errorf("%s: parallel fraction %.1f%% outside band [%.0f%%, %.0f%%]",
					w.Short, frac*100, band[0]*100, band[1]*100)
			}
		})
	}
}

func TestScaleGrowsWork(t *testing.T) {
	_, r1 := runInterp(t, Mcf(), 1)
	_, r2 := runInterp(t, Mcf(), 2)
	if r2.Insts <= r1.Insts {
		t.Errorf("scale 2 (%d insts) not larger than scale 1 (%d)", r2.Insts, r1.Insts)
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("mcf"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("181.mcf"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := xorshift.New(7), xorshift.New(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("rng not deterministic")
		}
	}
	if xorshift.New(0).Uint64() == 0 {
		t.Error("zero seed not remapped")
	}
}

func TestAbsHelper(t *testing.T) {
	for _, v := range []int64{0, 1, -1, math.MaxInt64, -5} {
		want := v
		if want < 0 {
			want = -want
		}
		if absI64(v) != want {
			t.Errorf("absI64(%d) = %d", v, absI64(v))
		}
	}
}
