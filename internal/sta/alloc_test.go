package sta

import (
	"runtime"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/xorshift"
)

// allocLoop is a long tight ALU loop: no memory traffic, no forks, so a
// warmed machine steps it in pure steady state for as long as the guard
// needs.
func allocLoop(t testing.TB, iters int64) *isa.Program {
	t.Helper()
	b := asm.New()
	b.Li(1, 0)
	b.Li(2, iters)
	b.Label("loop")
	b.OpI(isa.ADDI, 3, 1, 7)
	b.Op3(isa.XOR, 3, 3, 2)
	b.OpI(isa.ADDI, 1, 1, 1)
	b.Br(isa.BLT, 1, 2, "loop")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// wrongPathLoop is a long loop whose branch depends on loaded random data,
// so it mispredicts about half the time with ready-address loads on the
// squashed path: under wrong-path execution every recovery feeds the
// wrong-load queue.
func wrongPathLoop(t testing.TB, iters int64) *isa.Program {
	t.Helper()
	b := asm.New()
	const words = 1024
	base := b.Alloc("data", (words+64)*8, 64)
	r := xorshift.New(1)
	for i := uint64(0); i < words+64; i++ {
		b.InitWord(base+8*i, int64(r.Uint64()))
	}
	b.Li(1, 0)
	b.Li(2, iters)
	b.Li(5, int64(base))
	b.Label("loop")
	b.OpI(isa.ANDI, 6, 1, words-1)
	b.OpI(isa.SLLI, 6, 6, 3)
	b.Op3(isa.ADD, 7, 5, 6)
	b.Ld(8, 0, 7)
	b.OpI(isa.ANDI, 9, 8, 1)
	b.Br(isa.BEQ, 9, 0, "skip")
	b.Ld(10, 8, 7)
	b.Ld(11, 64, 7)
	b.Op3(isa.ADD, 3, 10, 11)
	b.Label("skip")
	b.Ld(12, 128, 7)
	b.Ld(13, 256, 7)
	b.Op3(isa.ADD, 4, 12, 13)
	b.OpI(isa.ADDI, 1, 1, 1)
	b.Br(isa.BLT, 1, 2, "loop")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// mallocs counts the heap allocations f makes. Unlike
// testing.AllocsPerRun, whose integer per-run average rounds any rate below
// one allocation per run down to zero, it reports the whole window's total.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// guardMachine builds a 1-TU machine for p the way RunContext sets up the
// sequential path and warms it past cold-start growth (caches, queues,
// pools).
func guardMachine(t *testing.T, p *isa.Program, wrongPath bool) *Machine {
	t.Helper()
	cfg := cfgTU(1)
	cfg.Core.WrongPathExec = wrongPath
	m, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	m.attachMetrics()
	m.attachAttrib()
	m.tus[0].startMain()
	for i := 0; i < 20_000 && !m.halted; i++ {
		m.step()
	}
	if m.halted {
		t.Fatal("warmup exhausted the loop; raise iters")
	}
	return m
}

type guardProgram struct {
	name      string
	p         *isa.Program
	wrongPath bool
}

// guardPrograms are the steady states the zero-allocation guards step: a
// pure ALU loop, and a wrong-path loop that recovers from a mispredict
// every few iterations and continues its squashed loads.
func guardPrograms(t *testing.T) []guardProgram {
	return []guardProgram{
		{"alu", allocLoop(t, 50_000_000), false},
		{"wrong-path", wrongPathLoop(t, 50_000_000), true},
	}
}

// TestStepSteadyStateZeroAllocs pins the per-cycle allocation cost of the
// uninstrumented machine: with no collector, no trace, no chaos, and no
// progress tap attached, 100 000 steady-state cycles must not allocate at
// all. This is the contract the telemetry layer's nil-check hooks ride on —
// if attaching observability moves any per-cycle work onto the heap, or the
// disabled path regresses, this fails before the perfbench gate does.
func TestStepSteadyStateZeroAllocs(t *testing.T) {
	for _, g := range guardPrograms(t) {
		t.Run(g.name, func(t *testing.T) {
			m := guardMachine(t, g.p, g.wrongPath)
			wrong := m.tus[0].core.Stats.WrongPathLoadsIssued
			n := mallocs(func() {
				for i := 0; i < 100_000 && !m.halted; i++ {
					m.step()
				}
			})
			if m.halted {
				t.Fatal("loop halted during the guard; raise iters")
			}
			if n != 0 {
				t.Fatalf("100000 steady-state steps allocated %d times, want 0 with telemetry detached", n)
			}
			if g.wrongPath && m.tus[0].core.Stats.WrongPathLoadsIssued == wrong {
				t.Fatal("the wrong-path loop issued no wrong-path loads; the guard covers nothing")
			}
		})
	}
}

// TestStepSteadyStateZeroAllocsWithTap is the same guard with a progress
// tap attached and pre-warmed: between throttled ring samples, publication
// is two atomic stores plus a commit-count sweep — allocation-free — so
// the window may allocate exactly what its ring samples cost. (Here
// publishProgress runs after every step rather than every 1024 run-loop
// iterations, to bound its own cost.)
func TestStepSteadyStateZeroAllocsWithTap(t *testing.T) {
	for _, g := range guardPrograms(t) {
		t.Run(g.name, func(t *testing.T) {
			m := guardMachine(t, g.p, g.wrongPath)
			m.Tap = &ProgressTap{}
			m.publishProgress(true) // prime the ring so its backing exists
			perTick := mallocs(func() { m.publishProgress(true) })
			var ticks uint64
			n := mallocs(func() {
				for i := 0; i < 100_000 && !m.halted; i++ {
					m.step()
					last := m.Tap.lastTick
					m.publishProgress(false)
					if m.Tap.lastTick != last {
						ticks++
					}
				}
			})
			if m.halted {
				t.Fatal("loop halted during the guard; raise iters")
			}
			if n != ticks*perTick {
				t.Fatalf("100000 tapped steady-state steps allocated %d times, want %d (%d ring samples at %d each)",
					n, ticks*perTick, ticks, perTick)
			}
		})
	}
}
