// Command simbench is the repository benchmark: it measures the jobs users
// run with this simulator — one-shot simulations and whole experiment
// sweeps, detailed and sampled — in-process through the public entry
// points, at the host's default CPU budget (GOMAXPROCS is never pinned).
//
//	go run . --workload oneshot-8tu --seed 1 --seconds 20 --trace 0
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//	oneshot-8tu     sta.New + Run of the six kernels and a few seeded wgen
//	                programs x {orig, wth-wp-wec} at 8 TUs, one after
//	                another from one goroutine, default stepping mode
//	suite-detailed  every experiment (harness.All) on a fresh runner with a
//	                ledger and an archive, plus the seeded wgen cells
//	suite-sampled   the same sweep at scale 4 under the README's sampled
//	                survey regime (warmup 500, measure 1000, period 30000)
//
// A run sets up nine times (setup_s is the median), then repeats the
// workload's job — one round of ops, or one sweep — until the next would
// overrun --seconds. Every op is validated; failures count against
// success_rate and are never skipped. With --trace 1 the run measures an
// untraced half and a traced half (CPU profile split by layer, spans
// around public calls, simulated counts of one job) and prints the
// per-layer metrics instead. The last line of standard output is the
// result JSON; the line before it describes the run (CPU budget, op
// sample count, the percentile op_ms_tail reports).
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/harness"
	"repro/internal/runstore"
	"repro/internal/sta"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
}

// setupReps is how many times a run sets up its workload; setup_s is the
// median.
const setupReps = 9

// setuper sets up a workload's fresh state; setup is what setup_s times.
type setuper interface {
	setup(sp *spans) (state, error)
}

// state serves timed jobs.
type state interface {
	// job runs one timed unit of work and validates every op in it.
	job(sp *spans) (*jobResult, error)
	// reusable reports whether the state can serve another job (a sweep
	// consumes its runner: a second sweep on it would be all memo hits).
	reusable() bool
	close() error
}

// jobResult is what one job did.
type jobResult struct {
	wall      time.Duration
	opMs      []float64 // latency of each completed op
	attempted int
	failed    int
	wrong     int   // completed ops whose outputs failed validation
	insts     int64 // interp.Result.Insts of completed ops
	counts    counts
	paperErr  float64 // NaN when the job's Fig. 11 cells did not all complete
	allocMB   float64
	// manifests of completed ops, kept only when traced, for replaying
	// into a fresh archive and ledger.
	manifests []*runstore.Manifest
}

// spans collects the benchmark's own timings around public calls. A nil
// *spans records nothing, so untraced runs pass nil.
type spans struct {
	ms          map[string][]float64
	interpInsts int64
	interpTime  time.Duration
}

func newSpans() *spans { return &spans{ms: make(map[string][]float64)} }

// since records the time elapsed from start under name.
func (s *spans) since(name string, start time.Time) {
	if s == nil {
		return
	}
	s.ms[name] = append(s.ms[name], msSince(start))
}

// interp records one interp.Run call and the instructions it executed.
func (s *spans) interp(start time.Time, insts int64) {
	if s == nil {
		return
	}
	s.since("interp.run_ms", start)
	s.interpInsts += insts
	s.interpTime += time.Since(start)
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// seededGenomes is how many wgen programs the seed adds beside the six
// kernels. Three keep the oneshot round at 18 ops, so its median and p75
// fall inside runs of similar-length kernel ops (mcf/vpr and
// parser/equake) rather than on the gap between two of them, where the
// reported value would jump between runs.
const seededGenomes = 3

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
}

// workdir holds a run's ledgers and archives, inside the checkout the
// benchmark runs from; each run removes its own subdirectory.
const workdir = ".bench_build/simbench-work"

func newWorkload(o options, log io.Writer, dir string) (setuper, error) {
	switch o.workload {
	case "oneshot-8tu":
		return &oneshot{seed: o.seed, kernels: kernelNames(), scale: 1, log: log}, nil
	case "suite-detailed":
		return &suite{name: o.workload, seed: o.seed, scale: 1, dir: dir, log: log}, nil
	case "suite-sampled":
		return &suite{name: o.workload, seed: o.seed, scale: 4, sample: surveyRegime, dir: dir, log: log}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (oneshot-8tu, suite-detailed, suite-sampled)", o.workload)
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "oneshot-8tu, suite-detailed or suite-sampled")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: op order and the wgen programs beside the kernels")
	fs.Float64Var(&o.seconds, "seconds", 10, "measurement budget in seconds (at least one job always runs)")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	w, err := newWorkload(o, stderr, dir)
	if err != nil {
		return err
	}
	b := &bench{w: w}
	defer b.close()

	budget := time.Duration(o.seconds * float64(time.Second))
	var sp *spans
	if o.trace == 1 {
		sp = newSpans()
	}
	for i := 0; i < setupReps; i++ {
		b.close()
		if err := b.setup(sp); err != nil {
			return err
		}
	}
	var res *result
	if o.trace == 0 {
		jobs, err := b.measure(budget, nil)
		if err != nil {
			return err
		}
		res = endToEndResult(b, jobs)
	} else {
		res, err = b.traced(budget, sp, dir)
		if err != nil {
			return err
		}
	}
	info := map[string]any{
		"workload":    o.workload,
		"seed":        o.seed,
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"jobs":        res.jobs,
		"op_samples":  res.opSamples,
		"op_tail_pct": res.tailPct,
		"setups":      len(b.setups),
		"paper_fig11": paperFig11Map(),
	}
	if o.trace == 1 {
		moves := make(map[string]string)
		for _, s := range perLayer() {
			moves[s.Name] = s.Moves
		}
		info["moves"] = moves
	}
	return emit(stdout, info, res)
}

// bench drives one workload through setups and jobs.
type bench struct {
	w         setuper
	st        state
	setups    []float64 // seconds per setup
	lastSetup time.Duration
}

func (b *bench) setup(sp *spans) error {
	runtime.GC()
	start := time.Now()
	st, err := b.w.setup(sp)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	b.lastSetup = time.Since(start)
	b.setups = append(b.setups, b.lastSetup.Seconds())
	b.st = st
	return nil
}

func (b *bench) close() {
	if b.st != nil {
		if err := b.st.close(); err != nil {
			fmt.Fprintln(os.Stderr, "simbench: close:", err)
		}
		b.st = nil
	}
}

// measure runs jobs until the next one would overrun budget; at least one
// always runs. A state that cannot serve another job is set up afresh, and
// that setup counts towards the budget.
func (b *bench) measure(budget time.Duration, sp *spans) ([]*jobResult, error) {
	start := time.Now()
	var jobs []*jobResult
	for {
		if b.st == nil {
			if err := b.setup(sp); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		jr, err := b.st.job(sp)
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&after)
		jr.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		jobs = append(jobs, jr)
		next := jr.wall
		if !b.st.reusable() {
			b.close()
			next += b.lastSetup
		}
		if time.Since(start)+next > budget {
			return jobs, nil
		}
	}
}

// result is one run's outcome before rendering.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64
	jobs      int
	opSamples int
	tailPct   float64
}

// tally sums attempts, failures and wrong outputs over jobs.
func tally(jobs []*jobResult) (attempted, failed, wrong int) {
	for _, j := range jobs {
		attempted += j.attempted
		failed += j.failed
		wrong += j.wrong
	}
	return
}

func endToEndResult(b *bench, jobs []*jobResult) *result {
	var walls, allocs, ops []float64
	var insts int64
	var wallSum time.Duration
	paper := math.NaN()
	for _, j := range jobs {
		walls = append(walls, j.wall.Seconds())
		allocs = append(allocs, j.allocMB)
		ops = append(ops, j.opMs...)
		insts += j.insts
		wallSum += j.wall
		if math.IsNaN(paper) {
			paper = j.paperErr
		}
	}
	attempted, failed, wrong := tally(jobs)
	pct, tailMs := tail(ops)
	return &result{
		correct:   wrong == 0,
		attempted: attempted,
		failed:    failed,
		jobs:      len(jobs),
		opSamples: len(ops),
		tailPct:   pct,
		metrics: map[string]float64{
			"wall_s":       median(walls),
			"setup_s":      median(b.setups),
			"minst_per_s":  float64(insts) / wallSum.Seconds() / 1e6,
			"op_ms_p50":    median(ops),
			"op_ms_tail":   tailMs,
			"success_rate": 1 - float64(failed)/float64(attempted),
			"alloc_mb":     median(allocs),
			"peak_rss_mb":  peakRSSMB(),
			"paper_err_pp": paper,
		},
	}
}

// traced measures an untraced half and a traced half of the budget and
// reports the per-layer metrics.
func (b *bench) traced(budget time.Duration, sp *spans, dir string) (*result, error) {
	plain, err := b.measure(budget/2, nil)
	if err != nil {
		return nil, err
	}
	if b.st == nil {
		// Set up the traced job's state outside the profile.
		if err := b.setup(sp); err != nil {
			return nil, err
		}
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	jobs, err := b.measure(budget/2, sp)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	cpu, err := cpuByLayer(prof.Bytes())
	if err != nil {
		return nil, err
	}
	if err := replay(jobs[0].manifests, sp, dir); err != nil {
		return nil, err
	}

	m := make(map[string]float64)
	perJob := 1 / float64(len(jobs))
	var total float64
	for _, l := range cpuLayers {
		m[l+".cpu_s"] = cpu[l] * perJob
		total += cpu[l] * perJob
	}
	m["cpu.total_s"] = total
	m["sched.cpu_frac"] = ratio(m["sched.cpu_s"], total)
	for _, name := range []string{"workload.build_ms", "interp.run_ms", "sta.new_ms", "runstore.put_ms", "harness.ledger_append_ms"} {
		m[name] = median(sp.ms[name])
	}
	m["interp.minst_per_s"] = ratio(float64(sp.interpInsts)/1e6, sp.interpTime.Seconds())

	// Counts come from the first traced job alone, so they are a pure
	// function of the workload and seed.
	cv := jobs[0].counts.values()
	for k, v := range cv {
		m[k] = v
	}
	m["mem.wec_useful_frac"] = ratio(cv["mem.wrong_useful"], cv["mem.wrong_loads"])
	// Host CPU of the cycle-level layers per simulated cycle, and of the
	// core per committed instruction.
	simCPU := m["core.cpu_s"] + m["mem.cpu_s"] + m["cache.cpu_s"] + m["bpred.cpu_s"] + m["isa.cpu_s"] + m["sta.cpu_s"]
	m["sta.ns_per_cycle"] = ratio(simCPU*1e9, cv["sta.cycles"])
	m["core.ns_per_commit"] = ratio(m["core.cpu_s"]*1e9, cv["core.commits"])

	all := append(append([]*jobResult(nil), plain...), jobs...)
	attempted, failed, wrong := tally(all)
	m["error_rate"] = float64(failed) / float64(attempted)
	var plainWalls, tracedWalls, ops []float64
	for _, j := range plain {
		plainWalls = append(plainWalls, j.wall.Seconds())
		ops = append(ops, j.opMs...)
	}
	for _, j := range jobs {
		tracedWalls = append(tracedWalls, j.wall.Seconds())
	}
	pct, _ := tail(ops)
	m["op.samples"] = float64(len(ops))
	m["op.tail_pct"] = pct
	m["host.nproc"] = float64(runtime.NumCPU())
	m["trace.wall_s"] = median(tracedWalls)
	m["trace.overhead_s"] = median(tracedWalls) - median(plainWalls)
	return &result{
		correct:   wrong == 0,
		attempted: attempted,
		failed:    failed,
		metrics:   m,
		jobs:      len(all),
		opSamples: len(ops),
		tailPct:   pct,
	}, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// replay writes a job's completed results into a fresh archive and a fresh
// ledger, timing each runstore Put and ledger Append.
func replay(ms []*runstore.Manifest, sp *spans, dir string) error {
	if len(ms) == 0 {
		return errors.New("replay: the traced job completed no ops")
	}
	d, err := os.MkdirTemp(dir, "replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(d)
	store, err := runstore.Open(filepath.Join(d, "runs"))
	if err != nil {
		return err
	}
	defer store.Close()
	led, _, err := harness.OpenLedger(filepath.Join(d, "results.jsonl"), ms[0].Scale)
	if err != nil {
		return err
	}
	defer led.Close()
	for _, m := range ms {
		start := time.Now()
		if err := store.Put(m); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		sp.since("runstore.put_ms", start)
		res := &sta.Result{Stats: m.Stats, MemCheck: m.MemCheck}
		copy(res.IntRegs[:], m.IntRegs)
		start = time.Now()
		if err := led.Append(m.MemoKey, res); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		sp.since("harness.ledger_append_ms", start)
	}
	return nil
}

// emit prints the info line and then the result as the last line. A
// metric that could not be measured (NaN) marks the run incorrect and is
// printed as 0, since JSON has no NaN.
func emit(w io.Writer, info map[string]any, res *result) error {
	u := units()
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metric{}}
	names := make([]string, 0, len(res.metrics))
	for k := range res.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		v := res.metrics[k]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			out.Correct = false
			info["unmeasured"] = append(asStrings(info["unmeasured"]), k)
			v = 0
		}
		out.Metrics[k] = metric{Value: v, Unit: u[k]}
	}
	ib, err := json.Marshal(map[string]any{"info": info})
	if err != nil {
		return err
	}
	rb, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", ib, rb)
	return err
}

func asStrings(v any) []string {
	s, _ := v.([]string)
	return s
}
