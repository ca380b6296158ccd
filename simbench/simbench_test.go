package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/interp"
	"repro/internal/sta"
	"repro/internal/workload"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNames: every metric has a well-formed unique name and a unit,
// every layer metric says what it should move, and BENCHMARK.json lists
// exactly the metrics the program reports.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	check := func(s spec) {
		if !nameRE.MatchString(s.Name) {
			t.Errorf("metric name %q does not match %s", s.Name, nameRE)
		}
		if !unitRE.MatchString(s.Unit) {
			t.Errorf("metric %s: unit %q does not match %s", s.Name, s.Unit, unitRE)
		}
		if s.Better != "lower" && s.Better != "higher" {
			t.Errorf("metric %s: better = %q", s.Name, s.Better)
		}
		if seen[s.Name] {
			t.Errorf("metric %s listed twice", s.Name)
		}
		seen[s.Name] = true
	}
	for _, s := range endToEnd {
		check(s)
	}
	for _, s := range perLayer() {
		check(s)
		if s.Moves == "" {
			t.Errorf("layer metric %s does not say which end-to-end metric it moves", s.Name)
		}
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		EndToEnd []spec `json:"end_to_end"`
		PerLayer []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []spec) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json %s has %d metrics, the program reports %d", what, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("BENCHMARK.json %s[%d] = %+v, program reports %+v", what, i, g, w)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer())
}

// smallProgram is a seeded wgen program small enough for short tests.
func smallProgram(t *testing.T, seed uint64) *program {
	t.Helper()
	g := genomes(seed, 1)[0]
	p, err := g.Program()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := interp.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	return &program{bench: g.BenchName(), prog: p, ref: ref}
}

// TestGateRejectsWrongReference: the gate passes a correct run and fails
// one checked against a wrong reference checksum or register file.
func TestGateRejectsWrongReference(t *testing.T) {
	p := smallProgram(t, 7)
	cfg, err := cfg8(config.WTHWPWEC)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sta.New(cfg, p.prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkOp(res.MemCheck, res.IntRegs[:], &res.Stats, p.ref); err != nil {
		t.Fatalf("correct run rejected: %v", err)
	}
	bad := *p.ref
	bad.MemCheck ^= 1
	if err := checkOp(res.MemCheck, res.IntRegs[:], &res.Stats, &bad); err == nil {
		t.Fatal("gate accepted a wrong reference checksum")
	}
	bad = *p.ref
	bad.IntRegs[1]++
	if res.IntRegs[1] != p.ref.IntRegs[1] {
		t.Fatal("test premise: r1 must be defined at halt")
	}
	if err := checkOp(res.MemCheck, res.IntRegs[:], &res.Stats, &bad); err == nil {
		t.Fatal("gate accepted a wrong reference register file")
	}
}

// TestCountsRepeat: two independent set-ups and traced jobs of the same
// seed produce identical count metrics.
func TestCountsRepeat(t *testing.T) {
	run := func() map[string]float64 {
		w := &oneshot{seed: 3, scale: 1, log: os.Stderr}
		st, err := w.setup(newSpans())
		if err != nil {
			t.Fatal(err)
		}
		jr, err := st.job(newSpans())
		if err != nil {
			t.Fatal(err)
		}
		if jr.failed != 0 || jr.attempted != 6 {
			t.Fatalf("job attempted %d, failed %d", jr.attempted, jr.failed)
		}
		return jr.counts.values()
	}
	a, b := run(), run()
	for _, name := range statCounts {
		if a[name] != b[name] {
			t.Errorf("%s: %v then %v", name, a[name], b[name])
		}
	}
	if a["sta.cycles"] == 0 || a["core.commits"] == 0 {
		t.Errorf("counts are empty: %v", a)
	}
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	if pct, v := tail(xs); pct != 90 || v != 90 {
		t.Errorf("100 samples: tail = p%v %v, want p90 90", pct, v)
	}
	if pct, _ := tail(xs[:39]); pct != 50 {
		t.Errorf("39 samples: tail = p%v, want p50", pct)
	}
	if pct, _ := tail(xs[:40]); pct != 75 {
		t.Errorf("40 samples: tail = p%v, want p75", pct)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/core.(*Core).Step":         "core",
		"repro/internal/mem.(*DUnit).access":       "mem",
		"repro/internal/telemetry.(*Run).Close":    "other",
		"runtime.lock2":                            "sched",
		"runtime.schedule":                         "sched",
		"runtime.mallocgc":                         "gc",
		"runtime.gcDrain":                          "gc",
		"runtime.memmove":                          "other",
		"syscall.Syscall6":                         "syscall",
		"internal/runtime/syscall.Syscall6":        "syscall",
		"sync.(*Mutex).Lock":                       "sched",
		"internal/runtime/atomic.(*Int32).Add":     "sched",
		"main.(*bench).measure":                    "other",
		"repro/internal/harness.(*Runner).Result":  "harness",
		"repro/internal/runstore.(*Store).Put":     "runstore",
		"repro/internal/interp.(*Engine).StepN":    "interp",
		"repro/internal/stats.BootstrapRatioCI":    "stats",
		"repro/internal/workload.Mcf.func1":        "workload",
		"repro/internal/sample.(*Sampler).Advance": "sample",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestCPUProfileSplit: a profile of interpreter work decodes and charges
// its time to the interpreter's layers.
func TestCPUProfileSplit(t *testing.T) {
	wl, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := wl.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		if _, err := interp.Run(prog); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	cpu, err := cpuByLayer(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, l := range cpuLayers {
		total += cpu[l]
	}
	if total == 0 {
		t.Skip("profile caught no samples")
	}
	if raceMode {
		return // leaf frames are the race detector's own
	}
	if got := cpu["interp"] + cpu["isa"]; got < total/4 {
		t.Errorf("interp+isa charged %.2fs of %.2fs: %v", got, total, cpu)
	}
}

// TestEmit: the last output line is the result object with exactly the
// contract's keys, every metric carries its unit, and an unmeasured
// metric marks the run incorrect.
func TestEmit(t *testing.T) {
	var out bytes.Buffer
	res := &result{correct: true, attempted: 3, failed: 1, metrics: map[string]float64{"wall_s": 1.5, "paper_err_pp": math.NaN()}}
	if err := emit(&out, map[string]any{"workload": "x"}, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
		t.Fatalf("result keys: %s", lines[len(lines)-1])
	}
	var ms map[string]struct {
		Value float64
		Unit  string
	}
	if err := json.Unmarshal(got["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	if ms["wall_s"].Unit != "s" || ms["wall_s"].Value != 1.5 {
		t.Errorf("wall_s = %+v", ms["wall_s"])
	}
	if string(got["correct"]) != "false" {
		t.Error("an unmeasured metric left the run correct")
	}
}
