package sta

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/attrib"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/wgen"
	"repro/internal/workload"
)

// runOut is one run's comparable output: the result, plus the metrics and
// attribution JSON exports and the attribution report (nil when the
// corresponding collector was not attached).
type runOut struct {
	res   *Result
	metJS []byte
	attJS []byte
	rep   *attrib.Report
}

// runMode runs p with the event-skip clock live (skip) or disabled. A
// positive interval attaches a metrics collector sampling at that many
// cycles; attribute attaches an attribution collector.
func runMode(t testing.TB, cfg Config, p *isa.Program, skip bool, interval uint64, attribute bool) runOut {
	t.Helper()
	m, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	m.DisableSkip = !skip
	var col *metrics.Collector
	if interval > 0 {
		col = metrics.NewCollector(interval)
		m.Metrics = col
	}
	var ac *attrib.Collector
	if attribute {
		ac = attrib.NewCollector()
		m.Attrib = ac
	}
	r, err := m.Run()
	if err != nil {
		t.Fatalf("skip=%v: %v", skip, err)
	}
	out := runOut{res: r}
	if col != nil {
		var buf bytes.Buffer
		if err := col.WriteJSON(&buf, r.Stats.Cycles); err != nil {
			t.Fatal(err)
		}
		out.metJS = buf.Bytes()
	}
	if ac != nil {
		out.rep = ac.Report(r.Stats.Cycles)
		var buf bytes.Buffer
		if err := out.rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		out.attJS = buf.Bytes()
	}
	return out
}

// TestEventSkipEquivalence is the correctness net for the idle-cycle
// fast-forward: for every program shape and configuration, a machine that
// skips provably idle spans must produce bit-identical results — stats,
// memory image, architectural registers — to one that steps every cycle.
func TestEventSkipEquivalence(t *testing.T) {
	progs := map[string]*isa.Program{
		"scale":  scaleLoop(t, 48),
		"prefix": prefixLoop(t, 32),
	}
	for name, p := range progs {
		for _, tus := range []int{1, 4, 8} {
			for _, wrong := range []bool{false, true} {
				cfg := cfgTU(tus)
				if wrong {
					cfg.WrongThreadExec = true
					cfg.Core.WrongPathExec = true
					cfg.Mem.Side = mem.SideWEC
				}
				stepped := runMode(t, cfg, p, false, 0, false).res
				skipped := runMode(t, cfg, p, true, 0, false).res
				if stepped.Stats != skipped.Stats {
					t.Errorf("%s %dTU wrong=%v: stats diverge\nstepped: %+v\nskipped: %+v",
						name, tus, wrong, stepped.Stats, skipped.Stats)
				}
				if stepped.MemCheck != skipped.MemCheck {
					t.Errorf("%s %dTU wrong=%v: memory %#x vs %#x",
						name, tus, wrong, stepped.MemCheck, skipped.MemCheck)
				}
				if stepped.IntRegs != skipped.IntRegs {
					t.Errorf("%s %dTU wrong=%v: architectural registers diverge",
						name, tus, wrong)
				}
			}
		}
	}
}

// TestEventSkipMetricsEquivalence requires the interval sampler to observe
// the identical stream of samples whether or not idle spans are skipped:
// MaybeSample is replayed for every fast-forwarded cycle, so the exported
// JSON must match byte for byte.
func TestEventSkipMetricsEquivalence(t *testing.T) {
	p := prefixLoop(t, 32)
	for _, tus := range []int{1, 8} {
		cfg := cfgTU(tus)
		cfg.WrongThreadExec = true
		cfg.Core.WrongPathExec = true
		cfg.Mem.Side = mem.SideWEC
		js1 := runMode(t, cfg, p, false, 500, false).metJS
		js2 := runMode(t, cfg, p, true, 500, false).metJS
		if !bytes.Equal(js1, js2) {
			t.Errorf("%dTU: metrics JSON diverges between stepped and skipped runs", tus)
		}
	}
}

// TestParallelEquivalenceMatrix holds every parallel-region workload — the
// six figure kernels plus one synthesized program — to bit-identical
// results in both stepping modes (every cycle stepped, idle spans
// skipped): stats, memory image, architectural registers, and, with
// observability attached, the metrics and attribution JSON exports.
func TestParallelEquivalenceMatrix(t *testing.T) {
	benches := workload.All()
	if raceMode || testing.Short() {
		benches = benches[:2] // race detector slowdown: trim the matrix
	}
	type matrixCase struct {
		name string
		prog *isa.Program
	}
	var cases []matrixCase
	for _, w := range benches {
		p, err := w.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, matrixCase{w.Short, p})
	}
	gp, err := wgen.Random(0xC0FFEE).Program()
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, matrixCase{"wgen", gp})
	for _, c := range cases {
		p := c.prog
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.MaxCycles = 20_000_000
			cfg.WrongThreadExec = true
			cfg.Core.WrongPathExec = true
			cfg.Mem.Side = mem.SideWEC
			for _, observe := range []bool{false, true} {
				interval := uint64(0)
				if observe {
					interval = 500
				}
				ref := runMode(t, cfg, p, false, interval, observe)
				got := runMode(t, cfg, p, true, interval, observe)
				tag := fmt.Sprintf("obs=%v", observe)
				if got.res.Stats != ref.res.Stats {
					t.Errorf("%s: stats diverge\nstepped: %+v\nskipped: %+v", tag, ref.res.Stats, got.res.Stats)
				}
				if got.res.MemCheck != ref.res.MemCheck {
					t.Errorf("%s: memory %#x vs %#x", tag, got.res.MemCheck, ref.res.MemCheck)
				}
				if got.res.IntRegs != ref.res.IntRegs {
					t.Errorf("%s: architectural registers diverge", tag)
				}
				if !bytes.Equal(got.metJS, ref.metJS) {
					t.Errorf("%s: metrics JSON diverges", tag)
				}
				if !bytes.Equal(got.attJS, ref.attJS) {
					t.Errorf("%s: attribution JSON diverges", tag)
				}
			}
		})
	}
}
