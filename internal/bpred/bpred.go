// Package bpred implements the branch-prediction hardware of one thread
// unit: a bimodal (2-bit saturating counter) direction predictor, a
// set-associative branch target buffer, and a return-address stack. The
// structures match the sim-outorder defaults the paper's SIMCA simulator
// inherits (§4.1: 4-way, 1024-entry BTB).
package bpred

import "fmt"

// Config sizes the predictor.
type Config struct {
	Dir            DirKind // direction scheme (default bimodal)
	BimodalEntries int     // direction table size (power of two)
	HistoryBits    int     // global history length for gshare/comb
	BTBEntries     int     // total BTB entries
	BTBAssoc       int
	RASEntries     int
}

// Default returns the configuration used throughout the paper.
func Default() Config {
	return Config{
		Dir:            DirBimodal,
		BimodalEntries: 2048,
		HistoryBits:    10,
		BTBEntries:     1024,
		BTBAssoc:       4,
		RASEntries:     8,
	}
}

// Predictor is one thread unit's branch predictor. Not safe for concurrent
// use.
type Predictor struct {
	cfg     Config
	dir     DirPredictor
	btbTags []uint64 // set-major, as are btbTgts/btbLRU: set s is [s*BTBAssoc, (s+1)*BTBAssoc)
	btbTgts []int
	btbLRU  []uint64
	btbSets int
	btbClk  uint64
	ras     []int
	rasTop  int

	// Statistics.
	Lookups     uint64
	Mispredicts uint64
	BTBHits     uint64
	BTBMisses   uint64
}

// New builds a predictor; sizes must be powers of two where indexed.
func New(cfg Config) (*Predictor, error) {
	if cfg.BimodalEntries <= 0 || cfg.BimodalEntries&(cfg.BimodalEntries-1) != 0 {
		return nil, fmt.Errorf("bpred: bimodal entries %d not a power of two", cfg.BimodalEntries)
	}
	if cfg.BTBAssoc <= 0 || cfg.BTBEntries%cfg.BTBAssoc != 0 {
		return nil, fmt.Errorf("bpred: BTB %d entries not divisible by assoc %d", cfg.BTBEntries, cfg.BTBAssoc)
	}
	sets := cfg.BTBEntries / cfg.BTBAssoc
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("bpred: BTB set count %d not a power of two", sets)
	}
	if cfg.RASEntries <= 0 {
		return nil, fmt.Errorf("bpred: RAS entries must be positive")
	}
	hist := cfg.HistoryBits
	if hist == 0 {
		hist = 10
	}
	dir, err := NewDir(cfg.Dir, cfg.BimodalEntries, hist)
	if err != nil {
		return nil, err
	}
	p := &Predictor{
		cfg:     cfg,
		dir:     dir,
		btbTags: make([]uint64, cfg.BTBEntries),
		btbTgts: make([]int, cfg.BTBEntries),
		btbLRU:  make([]uint64, cfg.BTBEntries),
		btbSets: sets,
		ras:     make([]int, cfg.RASEntries),
	}
	for i := range p.btbTags {
		p.btbTags[i] = ^uint64(0)
	}
	return p, nil
}

// PredictDirection returns the predicted direction for the branch at pc.
func (p *Predictor) PredictDirection(pc int) bool {
	p.Lookups++
	return p.dir.Predict(pc)
}

// UpdateDirection trains the direction predictor with the resolved outcome
// and counts mispredictions against the given prediction.
func (p *Predictor) UpdateDirection(pc int, taken, predicted bool) {
	if taken != predicted {
		p.Mispredicts++
	}
	p.dir.Update(pc, taken)
}

// Warm trains the direction predictor with a functionally executed branch
// outcome without touching the lookup/misprediction statistics. The
// sampled-simulation fast-forward path uses it so the predictor enters each
// measurement window in the state a detailed run would have built, while
// reported accuracy still reflects detailed execution only.
func (p *Predictor) Warm(pc int, taken bool) {
	p.dir.Update(pc, taken)
}

// WarmCall/WarmRet mirror JAL/JR on the return-address stack during
// fast-forward, keeping call-depth alignment across measurement windows.
func (p *Predictor) WarmCall(ret int) { p.PushRAS(ret) }

// WarmRet pops the RAS (see WarmCall); an empty stack is a no-op.
func (p *Predictor) WarmRet() { p.PopRAS() }

// btbSet returns the index range [lo, hi) of pc's BTB set.
func (p *Predictor) btbSet(pc int) (lo, hi int) {
	lo = (pc & (p.btbSets - 1)) * p.cfg.BTBAssoc
	return lo, lo + p.cfg.BTBAssoc
}

// LookupTarget consults the BTB for pc's branch target.
func (p *Predictor) LookupTarget(pc int) (int, bool) {
	lo, hi := p.btbSet(pc)
	tag := uint64(pc)
	for j := lo; j < hi; j++ {
		if p.btbTags[j] == tag {
			p.btbClk++
			p.btbLRU[j] = p.btbClk
			p.BTBHits++
			return p.btbTgts[j], true
		}
	}
	p.BTBMisses++
	return 0, false
}

// UpdateTarget installs pc -> target in the BTB.
func (p *Predictor) UpdateTarget(pc, target int) {
	lo, hi := p.btbSet(pc)
	tag := uint64(pc)
	vi := lo
	for j := lo; j < hi; j++ {
		if p.btbTags[j] == tag {
			vi = j
			goto install
		}
	}
	for j := lo; j < hi; j++ {
		if p.btbTags[j] == ^uint64(0) {
			vi = j
			goto install
		}
		if p.btbLRU[j] < p.btbLRU[vi] {
			vi = j
		}
	}
install:
	p.btbClk++
	p.btbTags[vi] = tag
	p.btbTgts[vi] = target
	p.btbLRU[vi] = p.btbClk
}

// PushRAS records a return address on a call.
func (p *Predictor) PushRAS(ret int) {
	p.ras[p.rasTop%len(p.ras)] = ret
	p.rasTop++
}

// PopRAS predicts a return target; ok is false when the stack is empty.
func (p *Predictor) PopRAS() (int, bool) {
	if p.rasTop == 0 {
		return 0, false
	}
	p.rasTop--
	return p.ras[p.rasTop%len(p.ras)], true
}

// Accuracy returns the fraction of direction lookups that were correct.
func (p *Predictor) Accuracy() float64 {
	if p.Lookups == 0 {
		return 1
	}
	return 1 - float64(p.Mispredicts)/float64(p.Lookups)
}
