package core

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/xorshift"
)

func TestFPPipelineMatchesInterp(t *testing.T) {
	b := asm.New()
	a := b.Alloc("v", 8*32, 0)
	for i := 0; i < 16; i++ {
		b.InitFloat(a+uint64(8*i), float64(i)+0.5)
	}
	b.Li(1, int64(a))
	b.Fli(1, 0) // acc
	b.Li(2, 0)
	b.Li(3, 16)
	b.Label("loop")
	b.OpI(isa.SLLI, 4, 2, 3)
	b.Op3(isa.ADD, 4, 4, 1)
	b.Fld(2, 0, 4)
	b.Fli(3, 1.5)
	b.Op3(isa.FMUL, 2, 2, 3)
	b.Op3(isa.FADD, 1, 1, 2)
	b.OpI(isa.ADDI, 2, 2, 1)
	b.Br(isa.BLT, 2, 3, "loop")
	b.Fst(1, 128, 1) // store the sum past the inputs
	b.Halt()
	p, _ := b.Build()
	r := buildRig(t, DefaultConfig(), p)
	r.runToHalt(t, 100000)
	checkAgainstInterp(t, r)
	want := 0.0
	for i := 0; i < 16; i++ {
		want += (float64(i) + 0.5) * 1.5
	}
	if got := r.d.img.ReadFloat(a + 128); got != want {
		t.Errorf("FP sum = %g, want %g", got, want)
	}
}

func TestJRMispredictRecovers(t *testing.T) {
	// An indirect jump whose target the RAS cannot predict (no matching
	// JAL): the core must recover to the register target.
	b := asm.New()
	b.Li(1, 6) // target: the Li r3 below
	b.Li(2, 0)
	b.Jr(1)
	b.Li(2, 99) // skipped
	b.Li(2, 98) // skipped
	b.Nop()
	b.Li(3, 7) // pc 6: landed here
	b.Halt()
	p, _ := b.Build()
	r := buildRig(t, DefaultConfig(), p)
	r.runToHalt(t, 10000)
	checkAgainstInterp(t, r)
	if r.c.IntRegs[2] != 0 || r.c.IntRegs[3] != 7 {
		t.Errorf("r2=%d r3=%d", r.c.IntRegs[2], r.c.IntRegs[3])
	}
	if r.c.Stats.Mispredicts == 0 {
		t.Error("unpredicted JR should count as a misprediction")
	}
}

func TestROBWrapAround(t *testing.T) {
	// A program much longer than the ROB forces head/tail wraparound many
	// times; results must stay exact.
	b := asm.New()
	b.Li(1, 0)
	for i := 0; i < 500; i++ {
		b.OpI(isa.ADDI, 1, 1, 2)
	}
	b.Halt()
	p, _ := b.Build()
	cfg := DefaultConfig()
	cfg.ROBSize = 16
	cfg.LSQSize = 16
	r := buildRig(t, cfg, p)
	r.runToHalt(t, 100000)
	if r.c.IntRegs[1] != 1000 {
		t.Errorf("r1 = %d, want 1000", r.c.IntRegs[1])
	}
}

func TestLSQCapacityStallsFetch(t *testing.T) {
	// More outstanding loads than LSQ entries: must not deadlock or drop.
	b := asm.New()
	a := b.Alloc("arr", 8*64, 0)
	for i := 0; i < 64; i++ {
		b.InitWord(a+uint64(8*i), int64(i))
	}
	b.Li(1, int64(a))
	b.Li(3, 0)
	for i := 0; i < 64; i++ {
		b.Ld(2, int64(8*i), 1)
		b.Op3(isa.ADD, 3, 3, 2)
	}
	b.Halt()
	p, _ := b.Build()
	cfg := DefaultConfig()
	cfg.LSQSize = 4
	r := buildRig(t, cfg, p)
	r.runToHalt(t, 100000)
	if r.c.IntRegs[3] != 63*64/2 {
		t.Errorf("sum = %d", r.c.IntRegs[3])
	}
}

func TestSeqLoopsRunsThreadCode(t *testing.T) {
	// With SeqLoops, a thread-pipelined loop runs as sequential code on the
	// bare core: FORK records, THEND jumps back, ABORT falls through.
	b := asm.New()
	a := b.Alloc("arr", 8*90, 0)
	b.Li(1, 0)
	b.Li(2, 10)
	b.Li(3, int64(a))
	b.Begin(1, 2, 3)
	b.Label("body")
	b.Op3(isa.ADD, 9, 1, 0)
	b.OpI(isa.ADDI, 1, 1, 1)
	b.Fork("body")
	b.Tsagd()
	b.OpI(isa.SLLI, 5, 9, 3)
	b.Op3(isa.ADD, 5, 5, 3)
	b.St(9, 0, 5)
	b.Br(isa.BLT, 1, 2, "cont")
	b.Abort()
	b.Jmp("after")
	b.Label("cont")
	b.Thend()
	b.Label("after")
	b.Halt()
	p, _ := b.Build()
	cfg := DefaultConfig()
	cfg.SeqLoops = true
	r := buildRig(t, cfg, p)
	r.runToHalt(t, 100000)
	checkAgainstInterp(t, r)
	for i := 0; i < 10; i++ {
		if got := r.d.img.ReadWord(a + uint64(8*i)); got != int64(i) {
			t.Errorf("arr[%d] = %d", i, got)
		}
	}
	if len(r.e.forks) != 10 {
		t.Errorf("forks = %d, want 10", len(r.e.forks))
	}
	if r.e.aborts != 1 {
		t.Errorf("aborts = %d", r.e.aborts)
	}
}

func TestNestedMispredictRecovery(t *testing.T) {
	// Two data-dependent branches back to back: recovery of the older one
	// must squash the younger's in-flight recovery state cleanly.
	b := asm.New()
	a := b.Alloc("bits", 8*128, 0)
	seed := uint64(12345)
	for i := 0; i < 128; i++ {
		seed = xorshift.Next(seed)
		b.InitWord(a+uint64(8*i), int64(seed&3))
	}
	b.Li(1, 0)
	b.Li(2, 128)
	b.Li(3, int64(a))
	b.Li(4, 0)
	b.Label("loop")
	b.OpI(isa.SLLI, 5, 1, 3)
	b.Op3(isa.ADD, 5, 5, 3)
	b.Ld(6, 0, 5)
	b.OpI(isa.ANDI, 7, 6, 1)
	b.Br(isa.BNE, 7, 0, "b1")
	b.OpI(isa.ADDI, 4, 4, 1)
	b.Label("b1")
	b.OpI(isa.ANDI, 7, 6, 2)
	b.Br(isa.BNE, 7, 0, "b2")
	b.OpI(isa.ADDI, 4, 4, 100)
	b.Label("b2")
	b.OpI(isa.ADDI, 1, 1, 1)
	b.Br(isa.BLT, 1, 2, "loop")
	b.Halt()
	p, _ := b.Build()
	cfg := DefaultConfig()
	cfg.WrongPathExec = true
	r := buildRig(t, cfg, p)
	r.runToHalt(t, 1000000)
	checkAgainstInterp(t, r)
	if r.c.Stats.Mispredicts == 0 {
		t.Error("expected mispredictions")
	}
}

func TestWrongCommitAccounting(t *testing.T) {
	b := asm.New()
	b.Li(1, 0)
	for i := 0; i < 20; i++ {
		b.OpI(isa.ADDI, 1, 1, 1)
	}
	b.Halt()
	p, _ := b.Build()
	r := buildRig(t, DefaultConfig(), p)
	r.c.StartMain()
	r.c.MarkWrong()
	var cyc uint64
	for ; cyc < 10000 && !r.e.halted; cyc++ {
		r.h.BeginCycle(cyc)
		r.d.begin()
		r.c.Step(cyc)
		r.h.Tick(cyc)
	}
	if r.c.Stats.Commits != 0 {
		t.Errorf("wrong-mode core counted %d correct commits", r.c.Stats.Commits)
	}
	if r.c.Stats.WrongCommits == 0 {
		t.Error("wrong-mode commits not counted")
	}
}

func TestContinueAtKeepsArchState(t *testing.T) {
	b := asm.New()
	b.Li(1, 5)
	b.Halt()   // pc 1
	b.Li(2, 7) // pc 2: resumed here
	b.Halt()
	p, _ := b.Build()
	r := buildRig(t, DefaultConfig(), p)
	r.c.StartMain()
	var cyc uint64
	for ; cyc < 1000 && !r.e.halted; cyc++ {
		r.h.BeginCycle(cyc)
		r.d.begin()
		r.c.Step(cyc)
		r.h.Tick(cyc)
	}
	r.e.halted = false
	r.c.ContinueAt(2)
	for ; cyc < 2000 && !r.e.halted; cyc++ {
		r.h.BeginCycle(cyc)
		r.d.begin()
		r.c.Step(cyc)
		r.h.Tick(cyc)
	}
	if r.c.IntRegs[1] != 5 || r.c.IntRegs[2] != 7 {
		t.Errorf("r1=%d r2=%d after resume", r.c.IntRegs[1], r.c.IntRegs[2])
	}
}

func TestIssueWidthLimitsThroughput(t *testing.T) {
	// With issue width 2 and 8 independent ops per "bundle", IPC can never
	// exceed 2.
	b := asm.New()
	const n = 400
	for i := 0; i < n; i++ {
		b.Li(1+(i%8), int64(i))
	}
	b.Halt()
	p, _ := b.Build()
	cfg := DefaultConfig()
	cfg.IssueWidth = 2
	r := buildRig(t, cfg, p)
	r.warmI(t)
	cycles := r.runToHalt(t, 100000)
	if float64(n)/float64(cycles) > 2.01 {
		t.Errorf("IPC %.2f exceeds issue width 2", float64(n)/float64(cycles))
	}
}

func TestFUContentionSerializesMultiplies(t *testing.T) {
	// One multiplier: independent MULs serialize at 1 per cycle issue into
	// the pipelined unit; with 8 multipliers they overlap more. Compare.
	prog := func() *isa.Program {
		b := asm.New()
		for i := 0; i < 64; i++ {
			b.Op3(isa.MUL, 1+(i%8), 9, 10)
		}
		b.Halt()
		p, _ := b.Build()
		return p
	}
	one := DefaultConfig()
	one.IntMul = 1
	r1 := buildRig(t, one, prog())
	r1.warmI(t)
	c1 := r1.runToHalt(t, 10000)
	r8 := buildRig(t, DefaultConfig(), prog())
	r8.warmI(t)
	c8 := r8.runToHalt(t, 10000)
	if c1 <= c8 {
		t.Errorf("1 multiplier (%d cyc) not slower than 4 (%d cyc)", c1, c8)
	}
}
