package sta

import (
	"context"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/chaos"
	"repro/internal/isa"
	"repro/internal/simerr"
)

// livelockProgram builds a workload that silently livelocks the machine: a
// parallel region whose head thread commits THEND without ever forking a
// successor or aborting. The thread retires, every TU idles, and the
// machine never halts — the shape of hang the MaxCycles bound would only
// diagnose 500M cycles later.
func livelockProgram(t *testing.T) *isa.Program {
	t.Helper()
	b := asm.New()
	b.Li(1, 0)
	b.Begin(1)
	b.Thend()
	b.Halt() // never reached: no thread survives the region
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// spinProgram builds a program that keeps retiring instructions forever
// (runaway, not deadlock): an unconditional jump loop.
func spinProgram(t *testing.T) *isa.Program {
	t.Helper()
	b := asm.New()
	b.Label("spin")
	b.OpI(isa.ADDI, 1, 1, 1)
	b.Jmp("spin")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func watchdogConfig(wd uint64) Config {
	cfg := DefaultConfig()
	cfg.NumTUs = 2
	cfg.WatchdogCycles = wd
	return cfg
}

// TestWatchdogTripsOnLivelock pins the forward-progress watchdog contract:
// a livelocked machine fails with simerr.Deadlock at roughly the watchdog
// window — far before MaxCycles — and the error carries a non-empty per-TU
// pipeline snapshot.
func TestWatchdogTripsOnLivelock(t *testing.T) {
	const wd = 50_000
	m, err := New(watchdogConfig(wd), livelockProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run()
	if err == nil {
		t.Fatal("livelocked machine ran to completion")
	}
	if k := simerr.KindOf(err); k != simerr.Deadlock {
		t.Fatalf("kind = %v, want Deadlock (%v)", k, err)
	}
	var e *simerr.Error
	if !errorsAs(err, &e) {
		t.Fatalf("error %T is not *simerr.Error", err)
	}
	if e.Cycle < wd || e.Cycle > wd+1_000 {
		t.Errorf("tripped at cycle %d, want ~%d (well before MaxCycles %d)",
			e.Cycle, wd, m.cfg.MaxCycles)
	}
	if len(e.TUs) != 2 {
		t.Fatalf("snapshot has %d TUs, want 2", len(e.TUs))
	}
	for _, tu := range e.TUs {
		if tu.State == "" || tu.Head == "" {
			t.Errorf("empty TU state in snapshot: %+v", tu)
		}
	}
}

// TestWatchdogSkipEquivalence asserts the event-skip clock does not move
// the cycle the watchdog fires at.
func TestWatchdogSkipEquivalence(t *testing.T) {
	trip := func(disableSkip bool) uint64 {
		m, err := New(watchdogConfig(20_000), livelockProgram(t))
		if err != nil {
			t.Fatal(err)
		}
		m.DisableSkip = disableSkip
		_, err = m.Run()
		var e *simerr.Error
		if !errorsAs(err, &e) || e.Kind != simerr.Deadlock {
			t.Fatalf("disableSkip=%v: %v", disableSkip, err)
		}
		return e.Cycle
	}
	stepped, skipped := trip(true), trip(false)
	if stepped != skipped {
		t.Errorf("watchdog fired at cycle %d stepped but %d skipped", stepped, skipped)
	}
}

// TestRunawayStillDiagnosed pins the MaxCycles path: a spinning program
// that keeps retiring never trips the watchdog but fails as Runaway at the
// bound, with machine state attached.
func TestRunawayStillDiagnosed(t *testing.T) {
	cfg := watchdogConfig(0) // default window
	cfg.MaxCycles = 30_000
	m, err := New(cfg, spinProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run()
	var e *simerr.Error
	if !errorsAs(err, &e) || e.Kind != simerr.Runaway {
		t.Fatalf("want Runaway, got %v", err)
	}
	if e.Cycle < 30_000 || len(e.TUs) == 0 {
		t.Errorf("runaway diagnostics incomplete: cycle=%d TUs=%d", e.Cycle, len(e.TUs))
	}
}

// TestRunContextCancellation covers the Canceled and Timeout kinds.
func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, err := New(watchdogConfig(0), spinProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunContext(ctx); simerr.KindOf(err) != simerr.Canceled {
		t.Errorf("pre-canceled context: kind = %v (%v)", simerr.KindOf(err), err)
	}

	tctx, tcancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer tcancel()
	m2, err := New(watchdogConfig(0), spinProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.RunContext(tctx); simerr.KindOf(err) != simerr.Timeout {
		t.Errorf("deadline: kind = %v (%v)", simerr.KindOf(err), err)
	}
}

// TestChaosLivelockInjection proves the chaos livelock point freezes the
// machine and the watchdog classifies it as Deadlock, and the chaos panic
// point is recovered into simerr.Panic with a stack.
func TestChaosLivelockInjection(t *testing.T) {
	cfg := watchdogConfig(10_000)
	m, err := New(cfg, spinProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	m.Chaos = chaos.New(chaos.Config{Seed: 1, Livelock: 1}, "livelock-test")
	_, err = m.Run()
	if k := simerr.KindOf(err); k != simerr.Deadlock {
		t.Errorf("chaos livelock kind = %v (%v)", k, err)
	}

	m2, err := New(cfg, spinProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	m2.Chaos = chaos.New(chaos.Config{Seed: 1, MachinePanic: 1}, "panic-test")
	_, err = m2.Run()
	var e *simerr.Error
	if !errorsAs(err, &e) || e.Kind != simerr.Panic {
		t.Fatalf("chaos panic: %v", err)
	}
	if len(e.Stack) == 0 || len(e.TUs) == 0 {
		t.Error("panic error missing stack or machine snapshot")
	}
}

// TestChaosDeterministic pins that chaos injection is a pure function of
// the seed: every core draws from its own forked stream and machine-level
// points from the root one, so the same configuration faults at the same
// cycle with the same classification on every run, in both stepping modes.
func TestChaosDeterministic(t *testing.T) {
	p := scaleLoop(t, 48)
	for _, ccfg := range []chaos.Config{
		{Seed: 7, CorePanic: 2e-3},
		{Seed: 11, MachinePanic: 1e-3},
	} {
		for _, skip := range []bool{false, true} {
			var ref *simerr.Error
			for run := 0; run < 2; run++ {
				m, err := New(cfgTU(8), p)
				if err != nil {
					t.Fatal(err)
				}
				m.DisableSkip = !skip
				m.Chaos = chaos.New(ccfg, "chaos-determinism")
				_, err = m.Run()
				var se *simerr.Error
				if !errorsAs(err, &se) {
					t.Fatalf("%+v skip=%v: want a *simerr.Error, got %v", ccfg, skip, err)
				}
				if ref == nil {
					ref = se
				} else if se.Kind != ref.Kind || se.Cycle != ref.Cycle {
					t.Errorf("%+v skip=%v: rerun fired (%v, cycle %d); first run fired (%v, cycle %d)",
						ccfg, skip, se.Kind, se.Cycle, ref.Kind, ref.Cycle)
				}
			}
		}
	}
}

// TestChaosOffBitIdentical asserts that attaching a zero-probability chaos
// injector perturbs nothing: stats, architectural state, and cycle counts
// stay bit-identical to an uninstrumented run.
func TestChaosOffBitIdentical(t *testing.T) {
	run := func(inj *chaos.Injector) *Result {
		m, err := New(watchdogConfig(0), livelockFreeProgram(t))
		if err != nil {
			t.Fatal(err)
		}
		m.Chaos = inj
		r, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	bare := run(nil)
	zero := run(chaos.New(chaos.Config{Seed: 99}, "off"))
	if bare.Stats != zero.Stats || bare.MemCheck != zero.MemCheck || bare.IntRegs != zero.IntRegs {
		t.Errorf("zero-probability chaos perturbed the run:\nbare: %+v\nzero: %+v", bare.Stats, zero.Stats)
	}
}

// livelockFreeProgram is a small well-formed program that halts.
func livelockFreeProgram(t *testing.T) *isa.Program {
	t.Helper()
	b := asm.New()
	scratch := b.Alloc("scratch", 128*8, 8)
	b.Li(10, int64(scratch))
	b.Li(1, 0)
	b.Li(2, 64)
	b.Label("loop")
	b.OpI(isa.SLLI, 11, 1, 3)
	b.Op3(isa.ADD, 11, 11, 10)
	b.Ld(12, 0, 11)
	b.OpI(isa.ADDI, 12, 12, 3)
	b.St(12, 0, 11)
	b.OpI(isa.ADDI, 1, 1, 1)
	b.Br(isa.BLT, 1, 2, "loop")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// errorsAs is a tiny local alias to keep test call sites readable.
func errorsAs(err error, target **simerr.Error) bool {
	if err == nil {
		return false
	}
	for e := err; e != nil; {
		if se, ok := e.(*simerr.Error); ok {
			*target = se
			return true
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		e = u.Unwrap()
	}
	return false
}
