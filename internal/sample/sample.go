// Package sample is the SMARTS-style sampling controller for the sta
// machine: it decides, in virtual-instruction time, when detailed
// simulation switches between warmup, measurement, and functional
// fast-forward, records per-window measurements, and turns them into the
// whole-run estimate (stats.Sampled) a sampled run reports.
//
// The controller itself is machine-agnostic: the sta run loop feeds it a
// virtual instruction count (detailed correct-path commits plus
// fast-forwarded instructions) and Counters snapshots at phase
// transitions; all actual pipeline squashing, hierarchy draining, and
// functional execution happens in internal/sta. Phase boundaries are
// quantized to the machine's sequential quiescent safepoints, so windows
// can overshoot their nominal lengths — every estimator here weights by
// what each window actually measured, not by the nominal config.
package sample

import (
	"fmt"

	"repro/internal/stats"
)

// Config selects a sampling regime. The virtual-instruction axis is
// divided into periods of PeriodInsts; each period starts with
// WarmupInsts of detailed-but-unmeasured simulation (absorbing the state
// error functional warming leaves behind), then MeasureInsts of measured
// detailed simulation, and fast-forwards the remainder functionally.
type Config struct {
	WarmupInsts  uint64
	MeasureInsts uint64
	PeriodInsts  uint64
	Seed         uint64  // bootstrap RNG seed; 0 = package default
	Confidence   float64 // CI mass; 0 = 0.95
}

// Enabled reports whether the config describes an actual sampling regime.
// The zero Config is disabled (fully detailed simulation).
func (c Config) Enabled() bool {
	return c.MeasureInsts > 0 && c.PeriodInsts > c.WarmupInsts+c.MeasureInsts
}

// Validate rejects configs that are non-zero but do not describe a
// runnable regime.
func (c Config) Validate() error {
	if c.WarmupInsts == 0 && c.MeasureInsts == 0 && c.PeriodInsts == 0 {
		return nil // disabled
	}
	if c.MeasureInsts == 0 {
		return fmt.Errorf("sample: measure window must be positive")
	}
	if c.PeriodInsts <= c.WarmupInsts+c.MeasureInsts {
		return fmt.Errorf("sample: period (%d) must exceed warmup+measure (%d)",
			c.PeriodInsts, c.WarmupInsts+c.MeasureInsts)
	}
	return nil
}

// Key renders the regime's canonical memo-key suffix.
func (c Config) Key() string {
	return stats.SampleKey(c.WarmupInsts, c.MeasureInsts, c.PeriodInsts)
}

// Exact returns the degenerate regime whose single measurement window is
// the whole run: warmup zero, a measure window no program exhausts, and a
// period that still satisfies Enabled. A machine running under Exact never
// fast-forwards, so its counters are byte-identical to a detailed run —
// the equivalence tests pin that.
func Exact() Config {
	return Config{WarmupInsts: 0, MeasureInsts: 1 << 62, PeriodInsts: 1 << 63}
}

// Counters is the machine state the controller samples at phase
// transitions: total cycles, correct-path commits, and correct-path L1D
// demand accesses/misses, summed over thread units.
type Counters struct {
	Cycles  uint64
	Commits uint64
	L1DAcc  uint64
	L1DMiss uint64
}

// Window is one closed measurement window's deltas.
type Window struct {
	Cycles  uint64
	Commits uint64
	L1DAcc  uint64
	L1DMiss uint64
}

// Phase is the controller's current regime phase.
type Phase int

const (
	PhaseWarmup  Phase = iota // detailed, unmeasured
	PhaseMeasure              // detailed, measured
	PhaseFF                   // functional fast-forward
)

// Sampler drives one run's sampling regime. Not safe for concurrent use;
// the sta run loop calls it between cycles.
type Sampler struct {
	cfg        Config
	phase      Phase
	periodBase uint64 // vcount where the current period began
	boundary   uint64 // vcount ending the current warmup/measure phase
	ffInsts    uint64
	windows    []Window
	snap       Counters
}

// New builds a sampler positioned at the start of the first period's
// warmup. The windows slice is preallocated so steady-state operation
// allocates nothing (the fast-forward path is pinned alloc-free).
func New(cfg Config) *Sampler {
	return &Sampler{
		cfg:      cfg,
		boundary: cfg.WarmupInsts,
		windows:  make([]Window, 0, 1024),
	}
}

// Config returns the regime this sampler runs.
func (s *Sampler) Config() Config { return s.cfg }

// Phase returns the current phase.
func (s *Sampler) Phase() Phase { return s.phase }

// FFInsts returns the instructions fast-forwarded so far. The machine adds
// it to detailed commits to form the virtual instruction count.
func (s *Sampler) FFInsts() uint64 { return s.ffInsts }

// Windows returns the closed measurement windows (read-only view).
func (s *Sampler) Windows() []Window { return s.windows }

// Due reports whether the current detailed phase (warmup or measure) has
// run its course at virtual instruction count vcount. The machine then
// waits for the next safepoint before transitioning, so overshoot is
// expected.
func (s *Sampler) Due(vcount uint64) bool { return vcount >= s.boundary }

// BeginMeasure transitions warmup -> measure, snapshotting the counters
// the window's deltas are taken against.
func (s *Sampler) BeginMeasure(now Counters) {
	s.snap = now
	s.phase = PhaseMeasure
	s.boundary = s.periodBase + s.cfg.WarmupInsts + s.cfg.MeasureInsts
}

// EndMeasure closes the measurement window at the given counters and
// returns how many instructions to fast-forward to reach the end of the
// period. Zero means the measured window already overshot the whole
// period (long parallel region); the caller skips the FF leg and calls
// EndFF immediately.
func (s *Sampler) EndMeasure(now Counters, vcount uint64) (ffInsts uint64) {
	s.windows = append(s.windows, delta(now, s.snap))
	s.phase = PhaseFF
	if target := s.periodBase + s.cfg.PeriodInsts; vcount < target {
		return target - vcount
	}
	return 0
}

// AddFF accumulates functionally executed instructions. The fast-forward
// leg calls it per chunk so the virtual clock stays current.
func (s *Sampler) AddFF(n uint64) { s.ffInsts += n }

// EndFF transitions fast-forward -> warmup of the next period. vcount is
// the virtual instruction count where detailed simulation resumes; the
// next period is re-based there so overshoot (fast-forward must exit any
// parallel region before stopping) never compounds across periods.
func (s *Sampler) EndFF(vcount uint64) {
	s.periodBase = vcount
	s.phase = PhaseWarmup
	s.boundary = vcount + s.cfg.WarmupInsts
}

func delta(now, snap Counters) Window {
	return Window{
		Cycles:  now.Cycles - snap.Cycles,
		Commits: now.Commits - snap.Commits,
		L1DAcc:  now.L1DAcc - snap.L1DAcc,
		L1DMiss: now.L1DMiss - snap.L1DMiss,
	}
}

// Finish closes any open measurement window at the final counters and
// builds the whole-run estimate. The point estimates are ratio-of-sums
// over the windows (each window weighted by what it measured), the
// intervals percentile bootstraps of that ratio; the cycle estimate prices
// the fast-forwarded instructions at the measured IPC on top of the
// cycles actually simulated in detail.
func (s *Sampler) Finish(final Counters) *stats.Sampled {
	if s.phase == PhaseMeasure {
		s.windows = append(s.windows, delta(final, s.snap))
	}
	sp := &stats.Sampled{
		WarmupInsts:    s.cfg.WarmupInsts,
		MeasureInsts:   s.cfg.MeasureInsts,
		PeriodInsts:    s.cfg.PeriodInsts,
		Windows:        len(s.windows),
		DetailedCycles: final.Cycles,
		DetailedInsts:  final.Commits,
		FFInsts:        s.ffInsts,
	}
	cycles := make([]float64, len(s.windows))
	commits := make([]float64, len(s.windows))
	acc := make([]float64, len(s.windows))
	miss := make([]float64, len(s.windows))
	for i, w := range s.windows {
		cycles[i] = float64(w.Cycles)
		commits[i] = float64(w.Commits)
		acc[i] = float64(w.L1DAcc)
		miss[i] = float64(w.L1DMiss)
	}
	sp.IPC = ratio(sum(commits), sum(cycles))
	sp.L1DMiss = ratio(sum(miss), sum(acc))
	sp.IPCLo, sp.IPCHi, sp.L1DMissLo, sp.L1DMissHi = stats.BootstrapRatioPairCI(
		commits, cycles, miss, acc, 0, s.cfg.Seed, s.cfg.Confidence)
	if len(s.windows) == 0 {
		// Halted inside the first warmup: no windows, but the whole run was
		// detailed, so fall back to the run's own rates.
		sp.IPC = ratio(float64(final.Commits), float64(final.Cycles))
		sp.IPCLo, sp.IPCHi = sp.IPC, sp.IPC
		sp.L1DMiss = ratio(float64(final.L1DMiss), float64(final.L1DAcc))
		sp.L1DMissLo, sp.L1DMissHi = sp.L1DMiss, sp.L1DMiss
	}
	sp.EstCycles = estCycles(final.Cycles, s.ffInsts, sp.IPC)
	// IPC interval maps inversely onto the cycle interval.
	sp.EstCyclesLo = estCycles(final.Cycles, s.ffInsts, sp.IPCHi)
	sp.EstCyclesHi = estCycles(final.Cycles, s.ffInsts, sp.IPCLo)
	return sp
}

// estCycles prices ff functional instructions at the given IPC on top of
// the detailed cycle count. A non-positive IPC (possible only in
// degenerate runs with no commits) falls back to one cycle per
// instruction so the estimate stays finite and ordered.
func estCycles(detailed, ff uint64, ipc float64) float64 {
	if ff == 0 {
		return float64(detailed)
	}
	if ipc <= 0 {
		return float64(detailed) + float64(ff)
	}
	return float64(detailed) + float64(ff)/ipc
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func ratio(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}
