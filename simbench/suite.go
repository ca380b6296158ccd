package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/interp"
	"repro/internal/isa"
	"repro/internal/runstore"
	"repro/internal/sample"
	"repro/internal/sta"
	"repro/internal/stats"
	"repro/internal/workload"
)

// surveyRegime is the README's sampled survey: 500 warmup and 1000
// measured instructions in every 30000.
var surveyRegime = sample.Config{WarmupInsts: 500, MeasureInsts: 1000, PeriodInsts: 30000}

// suite is `experiments -run all` on a fresh runner with a ledger and an
// archive, plus the seeded wgen programs on {orig, wth-wp-wec} at 8 TUs.
// The runner keeps its defaults: GOMAXPROCS concurrent cells, each
// stepped as the harness chooses.
type suite struct {
	name   string
	seed   uint64
	scale  int
	sample sample.Config
	dir    string
	log    io.Writer
}

type suiteState struct {
	w       *suite
	dir     string
	r       *harness.Runner
	led     *harness.Ledger
	store   *runstore.Store
	progs   map[string]*isa.Program
	refs    map[string]*interp.Result
	genomes []string // bench names of the wgen programs
}

func (w *suite) setup(sp *spans) (state, error) {
	dir, err := os.MkdirTemp(w.dir, w.name+"-")
	if err != nil {
		return nil, err
	}
	st := &suiteState{
		w:     w,
		dir:   dir,
		r:     harness.NewRunner(w.scale),
		progs: make(map[string]*isa.Program),
		refs:  make(map[string]*interp.Result),
	}
	if err := st.open(sp); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// open builds every program, runs the functional references through the
// runner (so its reference cache is warm before the sweep), and opens the
// ledger and archive.
func (s *suiteState) open(sp *spans) error {
	w := s.w
	s.r.Sample = w.sample
	var names []string
	for _, wl := range workload.All() {
		start := time.Now()
		p, err := wl.Build(w.scale)
		if err != nil {
			return err
		}
		sp.since("workload.build_ms", start)
		s.progs[wl.Short] = p
		names = append(names, wl.Short)
	}
	for _, g := range genomes(w.seed, seededGenomes) {
		p, err := g.Program()
		if err != nil {
			return err
		}
		s.progs[g.BenchName()] = p
		s.genomes = append(s.genomes, g.BenchName())
		names = append(names, g.BenchName())
	}
	for _, n := range names {
		s.r.RegisterProgram(n, s.progs[n])
		start := time.Now()
		ref, err := s.r.Reference(n)
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		sp.interp(start, ref.Insts)
		s.refs[n] = ref
	}
	led, _, err := harness.OpenLedger(filepath.Join(s.dir, "results.jsonl"), w.scale)
	if err != nil {
		return err
	}
	s.led, s.r.Ledger = led, led
	store, err := runstore.Open(filepath.Join(s.dir, "runs"))
	if err != nil {
		return err
	}
	s.store, s.r.Archive = store, store
	s.r.ArchiveTool = "simbench"
	return nil
}

func (s *suiteState) reusable() bool { return false }

func (s *suiteState) close() error {
	var errs []error
	if s.led != nil {
		errs = append(errs, s.led.Close())
	}
	if s.store != nil {
		errs = append(errs, s.store.Close())
	}
	errs = append(errs, os.RemoveAll(s.dir))
	return errors.Join(errs...)
}

// cfg8 is the 8-TU machine in a named configuration.
func cfg8(name config.Name) (sta.Config, error) {
	cfg := config.Main(8)
	return cfg, config.Apply(name, &cfg)
}

// key mirrors the runner's memo key, sampled suffix included, so cells
// failed by SuiteError and cells archived can be matched up.
func (s *suiteState) key(bench string, cfg sta.Config) string {
	if sp := s.w.sample; sp.Enabled() {
		return runstore.MemoKeySampled(bench, cfg, sp.WarmupInsts, sp.MeasureInsts, sp.PeriodInsts)
	}
	return harness.MemoKey(bench, cfg)
}

// job runs every experiment, then the wgen cells, and validates every
// archived cell against its functional reference.
func (s *suiteState) job(sp *spans) (*jobResult, error) {
	failed := make(map[string]error)
	start := time.Now()
	for _, e := range harness.All() {
		if err := e.RunTo(s.r, io.Discard); err != nil {
			var se *harness.SuiteError
			if !errors.As(err, &se) {
				failed["experiment "+e.ID] = err
				continue
			}
			for k, ferr := range se.Failures {
				failed[k] = ferr
			}
		}
	}
	if err := s.runGenomes(failed); err != nil {
		return nil, err
	}
	jr := &jobResult{wall: time.Since(start), paperErr: math.NaN()}

	archived := make(map[string]*runstore.Manifest)
	for _, m := range s.store.All() {
		archived[m.MemoKey] = m
		if _, bad := failed[m.MemoKey]; bad {
			continue
		}
		jr.attempted++
		ref := s.refs[m.Bench]
		if ref == nil {
			return nil, fmt.Errorf("archived cell %s has no reference", m.CellKey)
		}
		if err := checkOp(m.MemCheck, m.IntRegs, &m.Stats, ref); err != nil {
			jr.failed++
			jr.wrong++
			fmt.Fprintf(s.w.log, "%s: %s: wrong result: %v\n", s.w.name, m.MemoKey, err)
			continue
		}
		jr.opMs = append(jr.opMs, m.WallSeconds*1000)
		jr.insts += ref.Insts
		jr.counts.add(&m.Stats)
		if sp != nil {
			jr.manifests = append(jr.manifests, m)
		}
	}
	jr.attempted += len(failed)
	jr.failed += len(failed)
	if len(failed) > 0 {
		fmt.Fprintf(s.w.log, "%s: %d cells failed\n", s.w.name, len(failed))
	}
	if pe, err := s.paperErr(archived); err == nil {
		jr.paperErr = pe
	} else {
		fmt.Fprintf(s.w.log, "%s: paper_err_pp: %v\n", s.w.name, err)
	}
	if sp != nil {
		if err := s.timeNew(sp); err != nil {
			return nil, err
		}
	}
	return jr, nil
}

// runGenomes simulates the wgen cells with at most GOMAXPROCS in flight,
// recording failures under their memo keys.
func (s *suiteState) runGenomes(failed map[string]error) error {
	type cell struct {
		bench string
		cfg   sta.Config
	}
	var cells []cell
	for _, g := range s.genomes {
		for _, name := range oneshotConfigs {
			cfg, err := cfg8(name)
			if err != nil {
				return err
			}
			cells = append(cells, cell{g, cfg})
		}
	}
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		sem = make(chan struct{}, runtime.GOMAXPROCS(0))
	)
	for _, c := range cells {
		wg.Add(1)
		sem <- struct{}{}
		go func(c cell) {
			defer wg.Done()
			defer func() { <-sem }()
			if _, err := s.r.Result(c.bench, c.cfg); err != nil {
				mu.Lock()
				failed[s.key(c.bench, c.cfg)] = err
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return nil
}

// paperErr scores the sweep's Fig. 11 averages against the paper,
// computed as the fig11 experiment does, from the archived cells: a cell
// quarantined by a later experiment keeps the result fig11 reported.
func (s *suiteState) paperErr(archived map[string]*runstore.Manifest) (float64, error) {
	cycles := func(bench string, name config.Name) (uint64, error) {
		cfg, err := cfg8(name)
		if err != nil {
			return 0, err
		}
		m := archived[s.key(bench, cfg)]
		if m == nil {
			return 0, fmt.Errorf("fig11 cell %s/%s not archived", bench, name)
		}
		return m.Stats.Cycles, nil
	}
	cols := make(map[string][]float64)
	for _, k := range kernelNames() {
		or, err := cycles(k, config.Orig)
		if err != nil {
			return 0, err
		}
		for _, p := range paperFig11 {
			c, err := cycles(k, config.Name(p.config))
			if err != nil {
				return 0, err
			}
			cols[p.config] = append(cols[p.config], stats.Speedup(or, c))
		}
	}
	return paperErr(cols)
}

// timeNew times sta.New for every kernel on the oneshot machines: the
// harness makes these calls itself, so the traced run repeats them.
func (s *suiteState) timeNew(sp *spans) error {
	for _, k := range kernelNames() {
		for _, name := range oneshotConfigs {
			cfg, err := cfg8(name)
			if err != nil {
				return err
			}
			start := time.Now()
			if _, err := sta.New(cfg, s.progs[k]); err != nil {
				return err
			}
			sp.since("sta.new_ms", start)
		}
	}
	return nil
}
