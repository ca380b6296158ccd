// Sampled-simulation estimates: when a run executes only measurement
// windows in detail and fast-forwards the rest on the functional
// interpreter, the deterministic counters in Sim cover the detailed windows
// only, and a Sampled record carries the whole-run point estimates with
// confidence intervals. A nil Sampled pointer marks a fully detailed run;
// the memo-key suffix derived from SampleKey keeps sampled and detailed
// runs from ever silently comparing as equals anywhere downstream (harness
// memoization, the ledger, runstore manifests, simql diffs).
package stats

import (
	"fmt"
	"math"

	"repro/internal/xorshift"
)

// Sampled is the statistical estimate attached to a sampled run's Sim.
type Sampled struct {
	// Configuration echo (instruction counts per sampling period). These
	// feed SampleKey, so two runs with different sampling regimes hash to
	// different memo keys.
	WarmupInsts  uint64 `json:"warmup_insts"`
	MeasureInsts uint64 `json:"measure_insts"`
	PeriodInsts  uint64 `json:"period_insts"`

	// Coverage: what actually ran in detail vs. functionally.
	Windows        int    `json:"windows"`         // closed measurement windows
	DetailedCycles uint64 `json:"detailed_cycles"` // == Sim.Cycles
	DetailedInsts  uint64 `json:"detailed_insts"`  // correct-path commits simulated in detail
	FFInsts        uint64 `json:"ff_insts"`        // instructions fast-forwarded functionally

	// Point estimates with percentile-bootstrap 95% intervals over the
	// per-window measurements. EstCycles is the headline: detailed cycles
	// plus the fast-forwarded instructions at the measured IPC.
	EstCycles   float64 `json:"est_cycles"`
	EstCyclesLo float64 `json:"est_cycles_lo"`
	EstCyclesHi float64 `json:"est_cycles_hi"`
	IPC         float64 `json:"ipc"`
	IPCLo       float64 `json:"ipc_lo"`
	IPCHi       float64 `json:"ipc_hi"`
	L1DMiss     float64 `json:"l1d_miss"`
	L1DMissLo   float64 `json:"l1d_miss_lo"`
	L1DMissHi   float64 `json:"l1d_miss_hi"`
}

// SampleKey renders a sampling regime as the canonical memo-key suffix.
// Every producer (the harness memoizer, runstore manifests, the CLIs) must
// derive the suffix through this one function so content addresses agree.
func SampleKey(warmup, measure, period uint64) string {
	return fmt.Sprintf("sample{w:%d,m:%d,p:%d}", warmup, measure, period)
}

// Key returns the memo-key suffix of this estimate's sampling regime.
func (sp *Sampled) Key() string {
	return SampleKey(sp.WarmupInsts, sp.MeasureInsts, sp.PeriodInsts)
}

// EstCycles returns the run's best whole-run cycle estimate: the sampled
// estimate when one is attached, the exact detailed count otherwise.
// Cross-run consumers (speedup tables, diffs) use this so sampled and
// detailed results flow through the same arithmetic.
func (s *Sim) EstCycles() float64 {
	if s.Sampled != nil {
		return s.Sampled.EstCycles
	}
	return float64(s.Cycles)
}

// EstIPC returns the best whole-run IPC estimate (see EstCycles).
func (s *Sim) EstIPC() float64 {
	if s.Sampled != nil {
		return s.Sampled.IPC
	}
	return s.IPC()
}

// EstL1DMissRate returns the best whole-run L1D miss-rate estimate.
func (s *Sim) EstL1DMissRate() float64 {
	if s.Sampled != nil {
		return s.Sampled.L1DMiss
	}
	return s.L1DMissRate()
}

// BootstrapCI returns the percentile bootstrap confidence interval of the
// mean of xs: boot resamples with replacement, drawn from a deterministic
// xorshift64 stream so the same inputs always produce the same interval.
// (Shared by runstore's paired diffs and the sampling estimator.)
func BootstrapCI(xs []float64, boot int, seed uint64, conf float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	if len(xs) == 1 {
		return xs[0], xs[0]
	}
	boot, conf, rng := bootParams(boot, conf, seed)
	means := make([]float64, boot)
	n := uint64(len(xs))
	for i := range means {
		var s float64
		for j := 0; j < len(xs); j++ {
			s += xs[rng.Uint64()%n]
		}
		means[i] = s / float64(len(xs))
	}
	return percentiles(means, boot, conf)
}

// BootstrapRatioPairCI bootstraps two ratio-of-sums estimators,
// sum(numA)/sum(denA) and sum(numB)/sum(denB), over the same paired
// observations — the form window-weighted rates take (IPC =
// commits/cycles, miss rate = misses/accesses). Both estimators resample
// the same whole windows from one deterministic xorshift64 stream seeded
// with seed, so each interval equals what bootstrapping that pair alone
// with the same seed gives. One window collapses both intervals to the
// point estimates; a resample whose denominator sums to zero counts as
// ratio zero, and a non-finite one as the point estimate. All four slices
// hold one entry per window; mismatched lengths yield zeros.
//
// The interval bounds are order statistics of the resampled ratios, found
// by selection rather than a full sort. For the non-negative counts the
// estimators take, equal ratios are identical values, so selection and
// sorting pick the same bounds.
func BootstrapRatioPairCI(numA, denA, numB, denB []float64, boot int, seed uint64, conf float64) (aLo, aHi, bLo, bHi float64) {
	n := len(numA)
	if n == 0 || len(denA) != n || len(numB) != n || len(denB) != n {
		return 0, 0, 0, 0
	}
	pointA, pointB := ratioOfSums(numA, denA), ratioOfSums(numB, denB)
	if n == 1 {
		return pointA, pointA, pointB, pointB
	}
	boot, conf, rng := bootParams(boot, conf, seed)
	ra, rb := make([]float64, boot), make([]float64, boot)
	for i := range ra {
		var sna, sda, snb, sdb float64
		for j := 0; j < n; j++ {
			k := rng.Uint64() % uint64(n)
			sna += numA[k]
			sda += denA[k]
			snb += numB[k]
			sdb += denB[k]
		}
		ra[i] = resampled(sna, sda, pointA)
		rb[i] = resampled(snb, sdb, pointB)
	}
	aLo, aHi = percentiles(ra, boot, conf)
	bLo, bHi = percentiles(rb, boot, conf)
	return aLo, aHi, bLo, bHi
}

// resampled is one bootstrap replicate's ratio, with a zero denominator
// counting as zero and a non-finite ratio replaced by the point estimate.
func resampled(sn, sd, point float64) float64 {
	if sd == 0 {
		return 0
	}
	if r := sn / sd; !math.IsNaN(r) && !math.IsInf(r, 0) {
		return r
	}
	return point
}

func ratioOfSums(num, den []float64) float64 {
	var sn, sd float64
	for i := range num {
		sn += num[i]
		sd += den[i]
	}
	if sd == 0 {
		return 0
	}
	return sn / sd
}

func bootParams(boot int, conf float64, seed uint64) (int, float64, *xorshift.Rand) {
	if boot <= 0 {
		boot = 10000
	}
	if conf <= 0 || conf >= 1 {
		conf = 0.95
	}
	return boot, conf, xorshift.New(seed)
}

// percentiles returns the percentile-bootstrap bounds of vals: the order
// statistics sort.Float64s would place at the two tail indices, found by
// selection in linear time. vals is reordered.
func percentiles(vals []float64, boot int, conf float64) (lo, hi float64) {
	alpha := (1 - conf) / 2
	loIdx := int(math.Floor(alpha * float64(boot)))
	hiIdx := int(math.Ceil((1-alpha)*float64(boot))) - 1
	if loIdx < 0 {
		loIdx = 0
	}
	if hiIdx >= boot {
		hiIdx = boot - 1
	}
	return selectKth(vals, loIdx), selectKth(vals, hiIdx)
}

// selectKth partially reorders v (Hoare's FIND) until v[k] holds the value
// sort.Float64s would place at index k, and returns it. It orders like
// sort.Float64s, NaNs first.
func selectKth(v []float64, k int) float64 {
	lo, hi := 0, len(v)-1
	for lo < hi {
		p := v[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for floatLess(v[i], p) {
				i++
			}
			for floatLess(p, v[j]) {
				j--
			}
			if i <= j {
				v[i], v[j] = v[j], v[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return v[k]
		}
	}
	return v[k]
}

// floatLess is sort.Float64s's order: numeric, with NaNs before numbers.
func floatLess(a, b float64) bool { return a < b || (math.IsNaN(a) && !math.IsNaN(b)) }
