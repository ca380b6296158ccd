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
	"sort"

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

// BootstrapRatioCI bootstraps the ratio-of-sums estimator sum(num)/sum(den)
// over paired observations — the form window-weighted rates take (IPC =
// commits/cycles, miss rate = misses/accesses). Resampling happens over
// whole pairs, deterministic in seed. Degenerate inputs (one pair, or a
// resample with zero denominator) collapse to the point estimate.
func BootstrapRatioCI(num, den []float64, boot int, seed uint64, conf float64) (lo, hi float64) {
	if len(num) == 0 || len(num) != len(den) {
		return 0, 0
	}
	point := ratioOfSums(num, den, nil)
	if len(num) == 1 {
		return point, point
	}
	boot, conf, rng := bootParams(boot, conf, seed)
	ratios := make([]float64, boot)
	idx := make([]int, len(num))
	n := uint64(len(num))
	for i := range ratios {
		for j := range idx {
			idx[j] = int(rng.Uint64() % n)
		}
		ratios[i] = ratioOfSums(num, den, idx)
		if math.IsNaN(ratios[i]) || math.IsInf(ratios[i], 0) {
			ratios[i] = point
		}
	}
	return percentiles(ratios, boot, conf)
}

func ratioOfSums(num, den []float64, idx []int) float64 {
	var sn, sd float64
	if idx == nil {
		for i := range num {
			sn += num[i]
			sd += den[i]
		}
	} else {
		for _, i := range idx {
			sn += num[i]
			sd += den[i]
		}
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

func percentiles(vals []float64, boot int, conf float64) (lo, hi float64) {
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
