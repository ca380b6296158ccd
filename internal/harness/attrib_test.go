package harness

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/sample"
	"repro/internal/simerr"
)

// TestAttribReconcilesMcfWEC pins the acceptance identity between the
// attribution layer and the pre-existing DUnit counters on the mcf WEC-8
// configuration. In a WEC every speculative fill carries the wrong flag, so:
//
//   - every "useful" classification is a correct-path side hit on a
//     wrong-fetched block: Useful == WrongUseful;
//   - every issued prefetch either becomes its own speculative fill or is
//     merged into by a demand (late): SpecFills.Prefetch + Late.Prefetch ==
//     PrefIssued;
//   - every side-buffer insert is a speculative fill or a victim capture:
//     SpecFills + VictimInserts == WECInserts.
func TestAttribReconcilesMcfWEC(t *testing.T) {
	r := NewRunner(1)
	r.Attrib = true
	cfg := new(cfgset).at8(config.WTHWPWEC, nil)
	res, err := r.Result("mcf", cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.AttribReport("mcf", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.CheckInternal(); err != nil {
		t.Fatal(err)
	}
	s := &res.Stats
	if rep.SpecFills.Total() == 0 || rep.Useful.Total() == 0 {
		t.Fatalf("degenerate run: spec=%+v useful=%+v", rep.SpecFills, rep.Useful)
	}
	if got, want := rep.Useful.Total(), s.WrongUseful; got != want {
		t.Errorf("useful %d != WrongUseful %d", got, want)
	}
	if got, want := rep.SpecFills.Prefetch+rep.Late.Prefetch, s.PrefIssued; got != want {
		t.Errorf("prefetch fills %d + late %d != PrefIssued %d",
			rep.SpecFills.Prefetch, rep.Late.Prefetch, want)
	}
	if got, want := rep.SpecFills.Total()+rep.VictimInserts, s.WECInserts; got != want {
		t.Errorf("spec fills %d + victim inserts %d != WECInserts %d",
			rep.SpecFills.Total(), rep.VictimInserts, want)
	}
	if rep.Cycles != s.Cycles {
		t.Errorf("report cycles %d != run cycles %d", rep.Cycles, s.Cycles)
	}
}

// TestAttribRerunOnCachedResult: a result memoized without attribution is
// re-simulated when its report is first requested, deterministically.
func TestAttribRerunOnCachedResult(t *testing.T) {
	r := NewRunner(1)
	cfg := config.Main(2)
	res1, err := r.Result("gzip", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.AttribReport("gzip", cfg); err == nil {
		t.Fatal("report produced with attribution disabled")
	}
	r.Attrib = true
	rep, err := r.AttribReport("gzip", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || rep.Cycles != res1.Stats.Cycles {
		t.Fatalf("re-simulated run diverged: report %+v vs %d cycles", rep, res1.Stats.Cycles)
	}
	res2, err := r.Result("gzip", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.Cycles != res1.Stats.Cycles {
		t.Errorf("cycles changed across rerun: %d vs %d", res2.Stats.Cycles, res1.Stats.Cycles)
	}
}

// TestGainDecomposition runs the gain experiment end to end and checks the
// table's shape and that attribution state was restored on the runner.
func TestGainDecomposition(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full benchmark suite")
	}
	r := NewRunner(1)
	tbl, err := gainDecomp(r)
	if err != nil {
		t.Fatal(err)
	}
	if r.Attrib {
		t.Error("gainDecomp leaked Attrib=true on the runner")
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4:\n%s", len(tbl.Rows), tbl.String())
	}
	out := tbl.String()
	for _, want := range []string{"wth-wp-wec", "vc", "nlp", "useful", "polluting", "victim hits"} {
		if !strings.Contains(out, want) {
			t.Errorf("gain table missing %q:\n%s", want, out)
		}
	}
	// The victim-cache row must attribute its benefit to victim hits, not
	// to speculative fills (it has none).
	for _, row := range tbl.Rows {
		if row[0] == "vc" && row[2] != "0" {
			t.Errorf("vc row reports speculative fills: %v", row)
		}
	}
}

// TestSampledGainDoesNotPoisonLaterExperiments: attribution cannot run
// under sampling, so a sampled gain refuses all its cells. The refusal
// must not quarantine their memo keys: ext-latency, run next on the same
// runner, needs the same orig and wth-wp-wec 8-TU cells and must succeed.
func TestSampledGainDoesNotPoisonLaterExperiments(t *testing.T) {
	r := NewRunner(1)
	r.Sample = sample.Config{WarmupInsts: 500, MeasureInsts: 1000, PeriodInsts: 30000}
	gain, err := ByID("gain")
	if err != nil {
		t.Fatal(err)
	}
	_, err = gain.Run(r)
	var se *SuiteError
	if !errors.As(err, &se) {
		t.Fatalf("sampled gain: %v, want a SuiteError", err)
	}
	if want := 5 * len(Benches()); len(se.Failures) != want || se.Kinds()[simerr.BadProgram] != want {
		t.Fatalf("sampled gain failed %d cells (%v), want %d bad-program refusals", len(se.Failures), se.Kinds(), want)
	}
	lat, err := ByID("ext-latency")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lat.Run(r); err != nil {
		t.Fatalf("ext-latency after a sampled gain: %v", err)
	}
}
