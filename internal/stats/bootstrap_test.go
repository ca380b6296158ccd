package stats

import (
	"math"
	"sort"
	"testing"

	"repro/internal/xorshift"
)

// sortedRatioCI is the single-pair, sort-based ratio bootstrap that
// BootstrapRatioPairCI fuses: an index slice per resample, every ratio
// kept, a full sort, and the two tail indices read off.
func sortedRatioCI(num, den []float64, boot int, seed uint64, conf float64) (lo, hi float64) {
	if len(num) == 0 || len(num) != len(den) {
		return 0, 0
	}
	point := ratioOfSums(num, den)
	if len(num) == 1 {
		return point, point
	}
	boot, conf, rng := bootParams(boot, conf, seed)
	ratios := make([]float64, boot)
	idx := make([]int, len(num))
	for i := range ratios {
		for j := range idx {
			idx[j] = int(rng.Uint64() % uint64(len(num)))
		}
		var sn, sd float64
		for _, k := range idx {
			sn += num[k]
			sd += den[k]
		}
		if sd != 0 {
			ratios[i] = sn / sd
		}
		if math.IsNaN(ratios[i]) || math.IsInf(ratios[i], 0) {
			ratios[i] = point
		}
	}
	return sortedTails(ratios, boot, conf)
}

// sortedTails reads the percentile-bootstrap bounds off a full sort.
func sortedTails(vals []float64, boot int, conf float64) (lo, hi float64) {
	sort.Float64s(vals)
	alpha := (1 - conf) / 2
	loIdx := int(math.Floor(alpha * float64(boot)))
	hiIdx := int(math.Ceil((1-alpha)*float64(boot))) - 1
	if loIdx < 0 {
		loIdx = 0
	}
	if hiIdx >= boot {
		hiIdx = boot - 1
	}
	return vals[loIdx], vals[hiIdx]
}

// counts draws n non-negative window counters from a small range, so
// resamples tie often and zero entries (and all-zero denominators) occur.
func counts(r *xorshift.Rand, n, span int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(r.Intn(span))
	}
	return xs
}

// TestBootstrapRatioPairCIMatchesTwoSortedCalls: over random window
// counts — one window, ties, zero denominators, overflowing resamples,
// small and default resample counts — the fused bootstrap returns bit for bit what two
// separate sort-based bootstraps with the same seed return.
func TestBootstrapRatioPairCIMatchesTwoSortedCalls(t *testing.T) {
	r := xorshift.New(11)
	boots := []int{1, 2, 3, 5, 40, 0}
	confs := []float64{0.95, 0.5, 0.9, 0.99, 0}
	for trial := 0; trial < 600; trial++ {
		n := 1 + r.Intn(9)
		span := 1 + r.Intn(6)
		numA, denA := counts(r, n, span), counts(r, n, span)
		numB, denB := counts(r, n, span), counts(r, n, 2)
		if trial%7 == 0 {
			denB = make([]float64, n) // every resample divides by zero
		}
		if trial%5 == 0 {
			// A resample drawing this window twice overflows to +Inf,
			// which counts as the (finite) point estimate.
			numA[r.Intn(n)], numB[r.Intn(n)] = 1e308, 1e308
		}
		boot := boots[trial%len(boots)]
		conf := confs[r.Intn(len(confs))]
		seed := uint64(r.Intn(4))
		aLo, aHi, bLo, bHi := BootstrapRatioPairCI(numA, denA, numB, denB, boot, seed, conf)
		wantALo, wantAHi := sortedRatioCI(numA, denA, boot, seed, conf)
		wantBLo, wantBHi := sortedRatioCI(numB, denB, boot, seed, conf)
		got := [4]float64{aLo, aHi, bLo, bHi}
		want := [4]float64{wantALo, wantAHi, wantBLo, wantBHi}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d (n=%d boot=%d conf=%v seed=%d): fused %v, two sorted calls %v",
					trial, n, boot, conf, seed, got, want)
			}
		}
	}
	if lo, hi, _, _ := BootstrapRatioPairCI([]float64{1}, []float64{1, 2}, nil, nil, 0, 1, 0.95); lo != 0 || hi != 0 {
		t.Errorf("mismatched lengths = [%v, %v], want zeros", lo, hi)
	}
}

// TestSelectKthMatchesSort: selection returns the sorted order statistic
// at every index, NaNs and heavy ties included.
func TestSelectKthMatchesSort(t *testing.T) {
	r := xorshift.New(5)
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(40)
		vals := make([]float64, n)
		for i := range vals {
			switch r.Intn(8) {
			case 0:
				vals[i] = math.NaN()
			case 1:
				vals[i] = math.Inf(1 - 2*r.Intn(2))
			default:
				vals[i] = float64(r.Intn(5)) - 2
			}
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		for k := range sorted {
			got := selectKth(append([]float64(nil), vals...), k)
			if got != sorted[k] && !(math.IsNaN(got) && math.IsNaN(sorted[k])) {
				t.Fatalf("trial %d: selectKth(%v, %d) = %v, sorted %v", trial, vals, k, got, sorted[k])
			}
		}
	}
}
