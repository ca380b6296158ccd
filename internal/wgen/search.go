package wgen

import (
	"repro/internal/attrib"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/xorshift"
)

// RunFunc executes one generated program on the simulator and returns its
// final counters and (optionally) the fill-attribution report. wgen does
// not import the sta package — the CLIs, the harness, and the sta tests
// each inject their own runner — so the search works identically whether
// the program runs on a bare machine, under the harness, or in a test.
type RunFunc func(g Genome, p *isa.Program) (*stats.Sim, *attrib.Report, error)

// Search is the coverage-guided generation loop: an AFL-shaped corpus
// walk over the genome space using the simulator-behavior signature
// (Buckets) as the coverage map. Each step either mutates a corpus parent
// toward a dimension whose buckets are not yet saturated, or (with
// probability 1/epsilonInv, and always while the corpus is empty) draws a
// fresh uniform-random genome. Genomes that reach any new bucket join the
// corpus. Coverage is a union, so it is monotonically non-decreasing in
// the number of steps — the soak-smoke script asserts exactly that.
type Search struct {
	Run RunFunc

	rng    *xorshift.Rand
	cov    *Coverage
	corpus []corpusEntry
	steps  int
	tried  map[string]bool // genome hashes already run — never rerun one

	// Stratified-exploration state: draw index and per-knob phase offsets
	// (see stratified).
	strat    int
	stratOff [15]int

	// Bandit credit per dimension: some missing bins are unreachable on
	// the injected runner (a <70% branch-accuracy bin, prefetch-origin
	// fills with prefetching off), and a naive targeter burns its whole
	// budget chasing them. Dimensions whose targeting keeps failing decay
	// toward (but never reach) zero selection weight.
	attempts   map[string]int
	wins       map[string]int
	lastTarget string

	// The explore/exploit split is a bandit too. Early in a run uniform
	// sampling discovers buckets far faster than mutating a two-entry
	// corpus, so hard-coding any fixed epsilon either wastes the early
	// phase on incest or the late phase on saturated sampling. Each arm's
	// weight is its smoothed per-step bucket yield; the search anneals
	// from exploration to targeted climbing exactly when sampling stops
	// paying.
	explore arm
	exploit arm

	// Undecayed lifetime totals, for reporting only.
	exploreSteps, exploreGained int
	exploitSteps, exploitGained int
}

// arm tracks one bandit arm's spend and yield in 1/16 fixed-point units,
// with exponential decay so the weight reflects RECENT yield: exploration's
// huge early haul must not let it hog the budget after sampling has dried
// up. Both arms decay every step; credits land in units of 16.
type arm struct {
	attempts int
	gained   int
}

func (a *arm) decay() {
	a.attempts -= a.attempts / 16
	a.gained -= a.gained / 16
}

func (a *arm) credit(fresh int) {
	a.attempts += 16
	a.gained += 16 * fresh
}

// weight is the smoothed recent yield, floored so an arm is never starved
// outright. The floor is per-arm: when both arms have gone dry the split
// reverts to the floors' ratio, so exploration — whose dry spells end on
// their own — keeps the larger share while exploitation stays a steady
// targeted minority.
func (a arm) weight(floor int) int {
	w := 1000 * (a.gained + 16) / (a.attempts + 32)
	if w < floor {
		w = floor
	}
	return w
}

// corpusEntry remembers where a coverage-adding genome landed in every
// dimension, so later steps can hill-climb from the parent nearest a
// missing bin.
type corpusEntry struct {
	g    Genome
	bins map[string]int
}

// NewSearch builds a coverage-guided search over run. The seed fixes the
// entire trajectory: same seed + same runner ⇒ same genome sequence, same
// coverage curve.
func NewSearch(seed uint64, run RunFunc) *Search {
	s := &Search{
		Run:      run,
		rng:      xorshift.New(seed),
		cov:      NewCoverage(),
		tried:    make(map[string]bool),
		attempts: make(map[string]int),
		wins:     make(map[string]int),
	}
	for i := range s.stratOff {
		s.stratOff[i] = int(s.rng.Uint64() >> 40)
	}
	return s
}

// stratKnobs fixes the lattice geometry: for knob i, draw n yields
// lo + (n*stride + offset) mod span. Each stride is coprime to its span, so
// every knob sweeps its ENTIRE value range once per span draws — uniform
// sampling needs coupon-collector luck to do the same, which is exactly
// where it leaves marginal bins uncovered at small budgets. Distinct
// strides and random per-search phase offsets decorrelate the joints.
var stratKnobs = [15]struct{ lo, span, stride int }{
	{minWindows, maxWindows - minWindows + 1, 5},
	{minWindow, maxWindow - minWindow + 1, 7},
	{0, maxPct + 1, 37}, // par
	{minWSLog, maxWSLog - minWSLog + 1, 3},
	{0, maxChase + 1, 11},
	{0, maxStreams + 1, 5},
	{0, maxPct + 1, 59}, // stride%
	{0, maxPct + 1, 73}, // indir%
	{0, maxProbes + 1, 4},
	{0, maxReduce + 1, 6},
	{0, maxScans + 1, 7},
	{0, maxPct + 1, 89}, // branch%
	{0, maxPct + 1, 43}, // store%
	{0, 2, 1},           // fp
	{0, 2, 1},           // chain
}

// stratified returns the next exploration genome from the lattice.
func (s *Search) stratified() Genome {
	n := s.strat
	s.strat++
	v := func(i int) uint8 {
		k := stratKnobs[i]
		return uint8(k.lo + (n*k.stride+s.stratOff[i])%k.span)
	}
	g := Genome{
		Seed: mix64(s.rng.Uint64()), Windows: v(0), Window: v(1), ParPct: v(2),
		WSLog: v(3), Chase: v(4), Streams: v(5), StridePct: v(6), IndirPct: v(7),
		Probes: v(8), Reduce: v(9), Scans: v(10), BranchPct: v(11), StorePct: v(12),
		// Binary knobs would be phase-locked to each other on a stride-1
		// lattice; a scrambled parity decorrelates them.
		FP:    uint8(mix64(uint64(n)+uint64(s.stratOff[13])) & 1),
		Chain: uint8(mix64(uint64(n)*3+uint64(s.stratOff[14])) & 1),
	}
	return g.normalize()
}

// StepResult reports one search step.
type StepResult struct {
	Genome   Genome
	Sig      []string // the run's full behavior signature
	New      int      // buckets newly covered by this step
	Coverage int      // total buckets covered after this step
	Kept     bool     // genome joined the corpus
}

// Step generates, runs, and scores one genome.
func (s *Search) Step() (StepResult, error) {
	g := s.nextGenome()
	s.steps++
	p, err := g.Program()
	if err != nil {
		return StepResult{Genome: g}, err
	}
	sim, rep, err := s.Run(g, p)
	if err != nil {
		return StepResult{Genome: g}, err
	}
	sig := Buckets(sim, rep)
	fresh := s.cov.Add(sig)
	s.explore.decay()
	s.exploit.decay()
	if s.lastTarget != "" {
		s.attempts[s.lastTarget]++
		if fresh > 0 {
			s.wins[s.lastTarget]++
		}
		s.lastTarget = ""
		s.exploit.credit(fresh)
		s.exploitSteps++
		s.exploitGained += fresh
	} else {
		s.explore.credit(fresh)
		s.exploreSteps++
		s.exploreGained += fresh
	}
	res := StepResult{Genome: g, Sig: sig, New: fresh, Coverage: s.cov.Count(), Kept: fresh > 0}
	if res.Kept {
		bins := make(map[string]int, len(sig))
		for _, b := range sig {
			if dim, bin, ok := splitBucket(b); ok {
				bins[dim] = bin
			}
		}
		s.corpus = append(s.corpus, corpusEntry{g: g, bins: bins})
	}
	return res, nil
}

// mix64 is the murmur3 finalizer. Raw rng outputs are successive states of
// one xorshift64 orbit, and Random seeds a NEW xorshift64 with its argument
// — so Random(rng.Uint64()) twice in a row would walk overlapping slices of
// the same orbit and emit near-identical knob streams. Scrambling the seed
// through a multiply-xor mix puts every exploration draw on an unrelated
// orbit.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	return x
}

// nextGenome picks the next candidate: uniform exploration or a hill-climb
// toward a specific missing bin, weighted by each arm's measured yield.
// Duplicate genomes are rejected and redrawn — a rerun can never add
// coverage, so spending a simulator run on one is pure waste (climbs from
// the same parent frequently regenerate the same child).
func (s *Search) nextGenome() Genome {
	var g Genome
	for try := 0; ; try++ {
		we, wx := s.explore.weight(180), s.exploit.weight(60)
		if len(s.corpus) == 0 || try >= 8 || s.rng.Intn(we+wx) < we {
			g = s.stratified()
		} else {
			g = s.climb()
		}
		if h := g.Hash(); !s.tried[h] {
			s.tried[h] = true
			return g
		}
		s.lastTarget = "" // the rejected climb never ran; don't score it
	}
}

// climb targets one concrete uncovered bucket: pick an unsaturated
// dimension and one of its missing bin indices, select the corpus parent
// whose own bin in that dimension is nearest the target (bin indices are
// ordinal — adjacent bins are adjacent behaviors), and nudge the knobs
// steering the dimension. Small steps from a near-missing parent reach
// middle bins that extremes-only mutation and uniform sampling both skip;
// when the parent is far from the target, the same knobs are re-drawn
// across their full range instead.
func (s *Search) climb() Genome {
	dims := s.cov.Unsaturated()
	if len(dims) == 0 {
		return s.Mutate(s.corpus[s.rng.Intn(len(s.corpus))].g)
	}
	d := s.pickDimension(dims)
	s.lastTarget = d.Name
	missing := s.cov.MissingBins(d)
	if len(missing) == 0 { // dimension saturated between listing and now
		return s.Mutate(s.corpus[s.rng.Intn(len(s.corpus))].g)
	}
	target := missing[s.rng.Intn(len(missing))]
	if rowName, colName, ok := comboParts(d.Name); ok {
		if g, ok := s.crossover(rowName, colName, target); ok {
			return g
		}
	}
	best, bestDist := s.nearestParent(d.Name, target)
	g := best.g.normalize()
	near := bestDist <= 2
	for _, knob := range d.Knobs {
		if near {
			// Adjacent behavior: small steps, and leave some knobs alone.
			if s.rng.Intn(2) == 0 {
				nudgeKnob(&g, knob, s.rng)
			}
		} else {
			mutateKnob(&g, knob, s.rng)
		}
	}
	if s.rng.Intn(2) == 0 {
		g.Seed = mix64(s.rng.Uint64())
	}
	return g.normalize()
}

// nearestParent returns the corpus entry whose bin in dim is closest to
// target (bin indices are ordinal), preferring recent entries on ties, and
// the distance. Distance 1<<30 means no parent has the dimension at all.
func (s *Search) nearestParent(dim string, target int) (corpusEntry, int) {
	best, bestDist := s.corpus[len(s.corpus)-1], 1<<30
	for i := len(s.corpus) - 1; i >= 0; i-- {
		if bin, ok := s.corpus[i].bins[dim]; ok {
			dist := bin - target
			if dist < 0 {
				dist = -dist
			}
			if dist < bestDist {
				best, bestDist = s.corpus[i], dist
			}
		}
	}
	return best, bestDist
}

// comboParts splits a combination-dimension name "row*col" into its
// component dimension names.
func comboParts(name string) (row, col string, ok bool) {
	i := indexByte(name, '*')
	if i <= 0 {
		return "", "", false
	}
	return name[:i], name[i+1:], true
}

// dimByName looks a dimension up in the registry.
func dimByName(name string) (Dimension, bool) {
	for _, d := range Dimensions() {
		if d.Name == name {
			return d, true
		}
	}
	return Dimension{}, false
}

// crossover targets a combination bucket row*col:target by grafting: take
// the parent nearest the target's row bin, splice in the column dimension's
// knobs from the parent nearest the target's column bin, and nudge whichever
// side is not already exact. The two component dimensions steer disjoint
// knob sets, so the graft composes both behaviors — this is how the search
// reaches joint buckets (a mid-range miss rate under near-perfect branch
// prediction, say) that uniform sampling only hits by coincidence and
// single-parent mutation perturbs away.
func (s *Search) crossover(rowName, colName string, target int) (Genome, bool) {
	rowDim, ok1 := dimByName(rowName)
	colDim, ok2 := dimByName(colName)
	if !ok1 || !ok2 {
		return Genome{}, false
	}
	x, y := target/colDim.Bins, target%colDim.Bins
	a, da := s.nearestParent(rowName, x)
	b, db := s.nearestParent(colName, y)
	if da >= 1<<30 || db >= 1<<30 {
		return Genome{}, false
	}
	g := a.g.normalize()
	for _, knob := range colDim.Knobs {
		copyKnob(&g, &b.g, knob)
	}
	if da > 0 {
		for _, knob := range rowDim.Knobs {
			if s.rng.Intn(2) == 0 {
				nudgeKnob(&g, knob, s.rng)
			}
		}
	}
	if db > 0 {
		for _, knob := range colDim.Knobs {
			if s.rng.Intn(2) == 0 {
				nudgeKnob(&g, knob, s.rng)
			}
		}
	}
	return g.normalize(), true
}

// copyKnob copies every genome field the named canonical knob groups from
// src into dst.
func copyKnob(dst, src *Genome, knob string) {
	switch knob {
	case "win":
		dst.Windows, dst.Window = src.Windows, src.Window
	case "par":
		dst.ParPct = src.ParPct
	case "ws":
		dst.WSLog = src.WSLog
	case "chase":
		dst.Chase = src.Chase
	case "stream":
		dst.Streams, dst.StridePct, dst.IndirPct = src.Streams, src.StridePct, src.IndirPct
	case "probe":
		dst.Probes = src.Probes
	case "reduce":
		dst.Reduce = src.Reduce
	case "scan":
		dst.Scans = src.Scans
	case "br":
		dst.BranchPct = src.BranchPct
	case "store":
		dst.StorePct = src.StorePct
	case "fp":
		dst.FP = src.FP
	case "chain":
		dst.Chain = src.Chain
	}
}

// pickDimension samples an unsaturated dimension with probability
// proportional to its smoothed success rate (wins+1)/(attempts+2): a
// Beta-mean bandit. A dimension that keeps yielding nothing — its missing
// bins unreachable under the injected runner — decays toward a small floor
// instead of starving the productive dimensions.
func (s *Search) pickDimension(dims []Dimension) Dimension {
	weights := make([]int, len(dims))
	total := 0
	for i, d := range dims {
		// Opportunity × success rate: a combination dimension with twenty
		// uncovered bins deserves far more targeting than a scalar one
		// missing a single (possibly unreachable) bin.
		w := len(s.cov.MissingBins(d)) * 100 * (s.wins[d.Name] + 1) / (s.attempts[d.Name] + 2)
		if w < 10 {
			w = 10 // floor: unreachable today may be reachable from a new parent
		}
		weights[i] = w
		total += w
	}
	pick := s.rng.Intn(total)
	for i, w := range weights {
		pick -= w
		if pick < 0 {
			return dims[i]
		}
	}
	return dims[len(dims)-1]
}

// Mutate derives a child genome from parent: it picks a coverage dimension
// whose buckets are not yet saturated and re-draws EVERY knob steering that
// dimension, mixing range extremes (for the joint-extreme combination
// buckets uniform sampling only reaches by luck) with fresh uniform values
// and small deltas. The expansion seed is re-drawn half the time so data
// layouts and fragment interleavings vary too.
func (s *Search) Mutate(parent Genome) Genome {
	g := parent.normalize()
	dims := s.cov.Unsaturated()
	var d Dimension
	if len(dims) > 0 {
		d = dims[s.rng.Intn(len(dims))]
	} else {
		all := Dimensions()
		d = all[s.rng.Intn(len(all))]
	}
	for _, knob := range d.Knobs {
		mutateKnob(&g, knob, s.rng)
	}
	if s.rng.Intn(2) == 0 {
		g.Seed = mix64(s.rng.Uint64())
	}
	return g.normalize()
}

// SearchStats summarizes where a search spent its budget and what each arm
// earned — printed by the experiments CLI at the end of a wgen run.
type SearchStats struct {
	ExploreSteps, ExploreGained int
	ExploitSteps, ExploitGained int
	DimAttempts, DimWins        map[string]int
}

// Stats reports the explore/exploit split and per-dimension targeting record.
func (s *Search) Stats() SearchStats {
	da := make(map[string]int, len(s.attempts))
	dw := make(map[string]int, len(s.wins))
	for k, v := range s.attempts {
		da[k] = v
	}
	for k, v := range s.wins {
		dw[k] = v
	}
	return SearchStats{
		ExploreSteps: s.exploreSteps, ExploreGained: s.exploreGained,
		ExploitSteps: s.exploitSteps, ExploitGained: s.exploitGained,
		DimAttempts: da, DimWins: dw,
	}
}

// Coverage returns the accumulated coverage map.
func (s *Search) Coverage() *Coverage { return s.cov }

// Corpus returns the coverage-adding genomes found so far, in discovery
// order.
func (s *Search) Corpus() []Genome {
	out := make([]Genome, len(s.corpus))
	for i, e := range s.corpus {
		out[i] = e.g
	}
	return out
}

// Steps returns how many genomes have been generated and run.
func (s *Search) Steps() int { return s.steps }

// knobField resolves a canonical-line field name to one byte field and its
// range. "win" and "stream" group sub-knobs the canonical line packs
// together, so the rng picks among them. The boolean knobs fp/chain return
// ok=false — callers flip them directly.
func knobField(g *Genome, knob string, r *xorshift.Rand) (f *uint8, lo, hi int, ok bool) {
	switch knob {
	case "win":
		if r.Intn(2) == 0 {
			return &g.Windows, minWindows, maxWindows, true
		}
		return &g.Window, minWindow, maxWindow, true
	case "par":
		return &g.ParPct, 0, maxPct, true
	case "ws":
		return &g.WSLog, minWSLog, maxWSLog, true
	case "chase":
		return &g.Chase, 0, maxChase, true
	case "stream":
		switch r.Intn(3) {
		case 0:
			return &g.Streams, 0, maxStreams, true
		case 1:
			return &g.StridePct, 0, maxPct, true
		default:
			return &g.IndirPct, 0, maxPct, true
		}
	case "probe":
		return &g.Probes, 0, maxProbes, true
	case "reduce":
		return &g.Reduce, 0, maxReduce, true
	case "scan":
		return &g.Scans, 0, maxScans, true
	case "br":
		return &g.BranchPct, 0, maxPct, true
	case "store":
		return &g.StorePct, 0, maxPct, true
	case "fp":
		g.FP ^= 1
	case "chain":
		g.Chain ^= 1
	}
	return nil, 0, 0, false
}

// nudgeKnob moves the named knob by a small step — the hill-climbing move
// for reaching a bin adjacent to a parent's.
func nudgeKnob(g *Genome, knob string, r *xorshift.Rand) {
	f, lo, hi, ok := knobField(g, knob, r)
	if !ok {
		return
	}
	span := hi - lo
	step := 1 + r.Intn(2)
	if span > 30 {
		// Percentage-scale knobs: a one-notch bin move needs a bigger step.
		step = 3 + r.Intn(10)
	}
	v := int(*f)
	if r.Intn(2) == 0 {
		v += step
	} else {
		v -= step
	}
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	*f = uint8(v)
}

// mutateKnob perturbs the genome field named by the canonical-line field
// name: a small delta, a fresh random value, or a range extreme —
// normalization folds whatever comes out back into the valid range.
func mutateKnob(g *Genome, knob string, r *xorshift.Rand) {
	f, lo, hi, ok := knobField(g, knob, r)
	if !ok {
		return
	}
	switch r.Intn(8) {
	case 0: // small positive delta
		v := int(*f) + 1 + r.Intn(3)
		if v > hi {
			v = hi
		}
		*f = uint8(v)
	case 1: // small negative delta
		v := int(*f) - 1 - r.Intn(3)
		if v < lo {
			v = lo
		}
		*f = uint8(v)
	case 2, 3, 4: // fresh uniform value: keeps the middle bins reachable
		*f = uint8(lo + r.Intn(hi-lo+1))
	default: // range extreme: 3/8 of draws pin the knob for joint extremes
		if r.Intn(2) == 0 {
			*f = uint8(lo)
		} else {
			*f = uint8(hi)
		}
	}
}
