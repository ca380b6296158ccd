package main

import (
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"time"

	"repro/internal/config"
	"repro/internal/interp"
	"repro/internal/isa"
	"repro/internal/runstore"
	"repro/internal/sta"
	"repro/internal/stats"
	"repro/internal/wgen"
	"repro/internal/workload"
)

// oneshotConfigs are the machines every oneshot program runs on: the
// baseline and the paper's headline configuration, both at 8 TUs.
var oneshotConfigs = []config.Name{config.Orig, config.WTHWPWEC}

// kernelNames lists the six figure kernels in the paper's order.
func kernelNames() []string {
	var out []string
	for _, w := range workload.All() {
		out = append(out, w.Short)
	}
	return out
}

// genomes expands the seed into n wgen genomes. The benchmark seed only
// picks genomes; the simulator sees the generated programs.
func genomes(seed uint64, n int) []wgen.Genome {
	r := rand.New(rand.NewPCG(seed, 0x5eed))
	out := make([]wgen.Genome, n)
	for i := range out {
		out[i] = wgen.Random(r.Uint64())
	}
	return out
}

// program is one binary with its functional reference.
type program struct {
	bench  string
	kernel bool // one of the six figure kernels (counts towards Fig. 11)
	prog   *isa.Program
	ref    *interp.Result
}

// oneshot is the stasim-style workload: single simulations, one after
// another from one goroutine, in the machine's default stepping mode.
type oneshot struct {
	seed    uint64
	kernels []string
	scale   int
	log     io.Writer
}

type op struct {
	p    *program
	name config.Name
	cfg  sta.Config
}

type oneshotState struct {
	scale int
	ops   []op
	log   io.Writer
}

func (w *oneshot) setup(sp *spans) (state, error) {
	var progs []*program
	for _, k := range w.kernels {
		wl, err := workload.ByName(k)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		p, err := wl.Build(w.scale)
		if err != nil {
			return nil, err
		}
		sp.since("workload.build_ms", start)
		progs = append(progs, &program{bench: k, kernel: true, prog: p})
	}
	for _, g := range genomes(w.seed, seededGenomes) {
		p, err := g.Program()
		if err != nil {
			return nil, err
		}
		progs = append(progs, &program{bench: g.BenchName(), prog: p})
	}
	for _, p := range progs {
		start := time.Now()
		ref, err := interp.Run(p.prog)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.bench, err)
		}
		sp.interp(start, ref.Insts)
		p.ref = ref
	}
	st := &oneshotState{scale: w.scale, log: w.log}
	for _, p := range progs {
		for _, name := range oneshotConfigs {
			cfg := config.Main(8)
			if err := config.Apply(name, &cfg); err != nil {
				return nil, err
			}
			st.ops = append(st.ops, op{p: p, name: name, cfg: cfg})
		}
	}
	r := rand.New(rand.NewPCG(w.seed, 0x0de7))
	r.Shuffle(len(st.ops), func(i, j int) { st.ops[i], st.ops[j] = st.ops[j], st.ops[i] })
	return st, nil
}

func (s *oneshotState) reusable() bool { return true }
func (s *oneshotState) close() error   { return nil }

// job runs every op once, in the seeded order, each validated by the gate.
func (s *oneshotState) job(sp *spans) (*jobResult, error) {
	jr := &jobResult{paperErr: math.NaN()}
	cycles := make(map[string]map[config.Name]uint64)
	start := time.Now()
	for _, o := range s.ops {
		jr.attempted++
		t0 := time.Now()
		m, err := sta.New(o.cfg, o.p.prog)
		sp.since("sta.new_ms", t0)
		var res *sta.Result
		if err == nil {
			res, err = m.Run()
		}
		dt := time.Since(t0)
		if err != nil {
			jr.failed++
			fmt.Fprintf(s.log, "oneshot: %s/%s: %v\n", o.p.bench, o.name, err)
			continue
		}
		if err := checkOp(res.MemCheck, res.IntRegs[:], &res.Stats, o.p.ref); err != nil {
			jr.failed++
			jr.wrong++
			fmt.Fprintf(s.log, "oneshot: %s/%s: wrong result: %v\n", o.p.bench, o.name, err)
			continue
		}
		jr.opMs = append(jr.opMs, float64(dt.Nanoseconds())/1e6)
		jr.insts += o.p.ref.Insts
		jr.counts.add(&res.Stats)
		if o.p.kernel {
			if cycles[o.p.bench] == nil {
				cycles[o.p.bench] = make(map[config.Name]uint64)
			}
			cycles[o.p.bench][o.name] = res.Stats.Cycles
		}
		if sp != nil {
			jr.manifests = append(jr.manifests, runstore.New(o.p.bench, s.scale, o.cfg, res))
		}
	}
	jr.wall = time.Since(start)
	if pe, ok := oneshotPaperErr(cycles); ok {
		jr.paperErr = pe
	}
	return jr, nil
}

// oneshotPaperErr scores the one Fig. 11 column the oneshot ops measure,
// wth-wp-wec over orig, when every kernel completed both.
func oneshotPaperErr(cycles map[string]map[config.Name]uint64) (float64, bool) {
	var col []float64
	for _, k := range kernelNames() {
		c := cycles[k]
		if c == nil || c[config.Orig] == 0 || c[config.WTHWPWEC] == 0 {
			return 0, false
		}
		col = append(col, stats.Speedup(c[config.Orig], c[config.WTHWPWEC]))
	}
	pe, err := paperErr(map[string][]float64{string(config.WTHWPWEC): col})
	return pe, err == nil
}
