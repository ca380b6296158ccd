package core

import (
	"math"
	"testing"

	"repro/internal/asm"
	"repro/internal/interp"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/memimg"
)

// testDMem is a functional memory with a per-cycle port limit and optional
// stalling addresses; loads complete at hit latency.
type testDMem struct {
	img        *memimg.Image
	ports      int
	used       int
	stalls     map[uint64]int // addr -> remaining stall polls
	wrongLoads []uint64
	gate       bool // when true, LoadsAllowed returns false
}

func newTestDMem(img *memimg.Image) *testDMem {
	return &testDMem{img: img, ports: 2, stalls: map[uint64]int{}}
}

func (d *testDMem) begin() { d.used = 0 }

func (d *testDMem) TryLoad(cycle uint64, addr uint64, wrong bool, pc int) LoadResult {
	if n := d.stalls[addr]; n > 0 {
		d.stalls[addr] = n - 1
		return LoadResult{Status: LoadStall}
	}
	if d.used >= d.ports {
		return LoadResult{Status: LoadNoPort}
	}
	d.used++
	return LoadResult{Status: LoadForwarded, Value: d.img.ReadWord(addr)}
}

func (d *testDMem) WrongLoad(cycle uint64, addr uint64, pc int) bool {
	if d.used >= d.ports {
		return false
	}
	d.used++
	d.wrongLoads = append(d.wrongLoads, addr)
	return true
}

func (d *testDMem) CommitStore(cycle uint64, addr uint64, val int64, target bool, pc int) {
	d.img.WriteWord(addr, val)
}

func (d *testDMem) LoadsAllowed() bool { return !d.gate }

// testEnv records STA control events.
type testEnv struct {
	halted bool
	forks  []int
	aborts int
	thends int
	begins int
	tsas   []uint64
}

func (e *testEnv) OnBegin(cycle uint64, mask int64)   { e.begins++ }
func (e *testEnv) OnFork(cycle uint64, target int)    { e.forks = append(e.forks, target) }
func (e *testEnv) OnTsagd(cycle uint64)               {}
func (e *testEnv) OnTsa(cycle uint64, addr uint64)    { e.tsas = append(e.tsas, addr) }
func (e *testEnv) OnThend(cycle uint64)               { e.thends++ }
func (e *testEnv) OnAbort(cycle uint64, resumePC int) { e.aborts++ }
func (e *testEnv) OnHalt(cycle uint64)                { e.halted = true }

type rig struct {
	c    *Core
	h    *mem.Hierarchy
	d    *testDMem
	e    *testEnv
	prog *isa.Program
}

func buildRig(t *testing.T, cfg Config, p *isa.Program) *rig {
	t.Helper()
	h, err := mem.NewHierarchy(1, mem.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	img := memimg.New()
	asm.LoadData(p, img)
	d := newTestDMem(img)
	e := &testEnv{}
	c, err := New(cfg, isa.Predecode(p), h.IUnit(0), d, e)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{c: c, h: h, d: d, e: e, prog: p}
}

// warmI touches every program block so fetch starts warm (as it would be
// inside any loop); cold-code fetch behaviour is covered by the mem tests.
func (r *rig) warmI(t *testing.T) {
	t.Helper()
	var cyc uint64 = 0
	for pc := 0; pc < len(r.prog.Insts); pc += 4 {
		for i := 0; i < 1000; i++ {
			r.h.BeginCycle(cyc)
			ok := r.h.IUnit(0).FetchReady(cyc, pc)
			r.h.Tick(cyc)
			cyc++
			if ok {
				break
			}
		}
	}
}

// runToHalt drives the rig until OnHalt or the cycle limit.
func (r *rig) runToHalt(t *testing.T, limit uint64) uint64 {
	t.Helper()
	r.c.StartMain()
	var cyc uint64
	for ; cyc < limit; cyc++ {
		r.h.BeginCycle(cyc)
		r.d.begin()
		r.c.Step(cyc)
		r.h.Tick(cyc)
		if r.e.halted {
			return cyc
		}
	}
	t.Fatalf("program did not halt within %d cycles", limit)
	return cyc
}

// checkAgainstInterp runs the same program functionally and compares
// architectural results.
func checkAgainstInterp(t *testing.T, r *rig) *interp.Result {
	t.Helper()
	ref, err := interp.Run(r.prog)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < isa.NumIntRegs; i++ {
		if r.c.IntRegs[i] != ref.IntRegs[i] {
			t.Errorf("r%d = %d, interp says %d", i, r.c.IntRegs[i], ref.IntRegs[i])
		}
	}
	for i := 0; i < isa.NumFPRegs; i++ {
		if math.Float64bits(r.c.FPRegs[i]) != math.Float64bits(ref.FPRegs[i]) {
			t.Errorf("f%d = %g (%#x), interp says %g (%#x)", i,
				r.c.FPRegs[i], math.Float64bits(r.c.FPRegs[i]),
				ref.FPRegs[i], math.Float64bits(ref.FPRegs[i]))
		}
	}
	if got, want := r.d.img.Checksum(), ref.MemCheck; got != want {
		t.Errorf("memory checksum %#x, interp says %#x", got, want)
	}
	return ref
}

func TestStraightLineMatchesInterp(t *testing.T) {
	b := asm.New()
	b.Li(1, 10)
	b.Li(2, 3)
	b.Op3(isa.ADD, 3, 1, 2)
	b.Op3(isa.MUL, 4, 3, 2)
	b.Op3(isa.SUB, 5, 4, 1)
	b.OpI(isa.SLLI, 6, 5, 4)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r := buildRig(t, DefaultConfig(), p)
	r.runToHalt(t, 10000)
	checkAgainstInterp(t, r)
}

func TestDependencyChainLatency(t *testing.T) {
	// A chain of dependent adds cannot finish faster than its length.
	b := asm.New()
	b.Li(1, 0)
	const chain = 50
	for i := 0; i < chain; i++ {
		b.OpI(isa.ADDI, 1, 1, 1)
	}
	b.Halt()
	p, _ := b.Build()
	r := buildRig(t, DefaultConfig(), p)
	cycles := r.runToHalt(t, 10000)
	if r.c.IntRegs[1] != chain {
		t.Fatalf("r1 = %d", r.c.IntRegs[1])
	}
	if cycles < chain {
		t.Errorf("dependent chain of %d finished in %d cycles", chain, cycles)
	}
}

func TestIndependentOpsOverlap(t *testing.T) {
	// Independent ops should achieve IPC well above 1 on an 8-wide core.
	b := asm.New()
	const n = 200
	for i := 0; i < n; i++ {
		b.Li(1+(i%8), int64(i))
	}
	b.Halt()
	p, _ := b.Build()
	r := buildRig(t, DefaultConfig(), p)
	r.warmI(t)
	cycles := r.runToHalt(t, 10000)
	if cycles > n/2 {
		t.Errorf("independent ops took %d cycles for %d insts (no overlap?)", cycles, n)
	}
}

func TestLoopMatchesInterp(t *testing.T) {
	b := asm.New()
	b.Li(1, 0)
	b.Li(2, 100)
	b.Li(3, 0)
	b.Label("loop")
	b.Op3(isa.ADD, 3, 3, 1)
	b.OpI(isa.ADDI, 1, 1, 1)
	b.Br(isa.BLT, 1, 2, "loop")
	b.Halt()
	p, _ := b.Build()
	r := buildRig(t, DefaultConfig(), p)
	r.runToHalt(t, 100000)
	checkAgainstInterp(t, r)
	if r.c.IntRegs[3] != 4950 {
		t.Errorf("sum = %d", r.c.IntRegs[3])
	}
	if r.c.Stats.Branches != 100 {
		t.Errorf("branches = %d", r.c.Stats.Branches)
	}
}

func TestDataDependentBranchesMatchInterp(t *testing.T) {
	// Alternating branch pattern forces mispredictions; results must still
	// be architecturally exact.
	b := asm.New()
	a := b.Alloc("arr", 8*64, 0)
	for i := 0; i < 64; i++ {
		b.InitWord(a+uint64(8*i), int64(i*37%13))
	}
	b.Li(1, 0)        // i
	b.Li(2, 64)       // n
	b.Li(3, int64(a)) // base
	b.Li(4, 0)        // acc
	b.Li(7, 6)        // threshold
	b.Label("loop")
	b.OpI(isa.SLLI, 5, 1, 3)
	b.Op3(isa.ADD, 5, 5, 3)
	b.Ld(6, 0, 5)
	b.Br(isa.BLT, 6, 7, "small")
	b.Op3(isa.ADD, 4, 4, 6)
	b.Jmp("next")
	b.Label("small")
	b.Op3(isa.SUB, 4, 4, 6)
	b.Label("next")
	b.OpI(isa.ADDI, 1, 1, 1)
	b.Br(isa.BLT, 1, 2, "loop")
	b.Halt()
	p, _ := b.Build()
	r := buildRig(t, DefaultConfig(), p)
	r.runToHalt(t, 100000)
	checkAgainstInterp(t, r)
	if r.c.Stats.Mispredicts == 0 {
		t.Error("expected some mispredictions on a data-dependent branch")
	}
}

func TestStoreLoadForwarding(t *testing.T) {
	b := asm.New()
	a := b.Alloc("x", 8, 0)
	b.Li(1, int64(a))
	b.Li(2, 77)
	b.St(2, 0, 1)
	b.Ld(3, 0, 1) // must see 77 via LSQ forwarding (store not yet committed)
	b.OpI(isa.ADDI, 3, 3, 1)
	b.Halt()
	p, _ := b.Build()
	r := buildRig(t, DefaultConfig(), p)
	r.runToHalt(t, 10000)
	checkAgainstInterp(t, r)
	if r.c.IntRegs[3] != 78 {
		t.Errorf("r3 = %d, want 78", r.c.IntRegs[3])
	}
}

func TestLoadWaitsForUnknownStoreAddress(t *testing.T) {
	// A load must not bypass an older store whose address is unresolved;
	// this program would read the wrong value if it did.
	b := asm.New()
	a := b.Alloc("arr", 64, 0)
	b.InitWord(a, 5)
	b.Li(1, int64(a))
	b.Li(2, 9)
	// The store address depends on a long-latency op (division chain).
	b.Li(4, 640)
	b.Li(5, 10)
	b.Op3(isa.DIV, 4, 4, 5) // 64
	b.Op3(isa.DIV, 4, 4, 5) // 6
	b.Op3(isa.MUL, 4, 4, 0) // 0
	b.Op3(isa.ADD, 6, 1, 4) // addr = a
	b.St(2, 0, 6)           // mem[a] = 9, address late
	b.Ld(3, 0, 1)           // must see 9
	b.Halt()
	p, _ := b.Build()
	r := buildRig(t, DefaultConfig(), p)
	r.runToHalt(t, 10000)
	checkAgainstInterp(t, r)
	if r.c.IntRegs[3] != 9 {
		t.Errorf("r3 = %d, want 9 (load bypassed unresolved store)", r.c.IntRegs[3])
	}
}

func TestJalJrReturn(t *testing.T) {
	b := asm.New()
	b.Jal(31, "fn")
	b.Li(2, 1)
	b.Jal(31, "fn")
	b.Li(3, 1)
	b.Halt()
	b.Label("fn")
	b.OpI(isa.ADDI, 4, 4, 1)
	b.Jr(31)
	p, _ := b.Build()
	r := buildRig(t, DefaultConfig(), p)
	r.runToHalt(t, 10000)
	checkAgainstInterp(t, r)
	if r.c.IntRegs[4] != 2 {
		t.Errorf("fn called %d times", r.c.IntRegs[4])
	}
}

func TestWrongPathLoadExtraction(t *testing.T) {
	// A branch whose not-taken path contains ready loads: with
	// WrongPathExec those loads continue to memory after the recovery.
	b := asm.New()
	arr := b.Alloc("arr", 8*32, 0)
	b.Li(1, int64(arr))
	// Branch condition resolves slowly (division chain), giving the fetch
	// unit time to run down the predicted (fall-through) path and make the
	// loads ready — the scenario of the paper's Figure 3.
	b.Li(2, 640)
	b.Li(5, 10)
	b.Op3(isa.DIV, 2, 2, 5) // 64
	b.Op3(isa.DIV, 2, 2, 5) // 6
	b.Li(3, 0)
	b.Br(isa.BNE, 2, 0, "skip") // taken (r2 = 6); trained not-taken below
	// Fall-through (wrong) path: loads with ready addresses.
	b.Ld(4, 0, 1)
	b.Ld(6, 64, 1)
	b.Ld(7, 128, 1)
	b.Label("skip")
	b.OpI(isa.ADDI, 3, 3, 1)
	b.Halt()
	p, _ := b.Build()
	cfg := DefaultConfig()
	cfg.WrongPathExec = true
	r := buildRig(t, cfg, p)
	r.warmI(t)
	// Hold loads at the issue gate so they are address-ready but not yet
	// issued when the branch resolves (Figure 3's loads C and D: "waiting
	// for a free port"). The correct path has no loads, so the program
	// still completes.
	r.d.gate = true
	// Force a misprediction: train the branch PC to predict not-taken.
	r.c.StartMain()
	bpc := int(p.Symbols["skip"]) - 4 // the BNE
	for i := 0; i < 8; i++ {
		r.c.Predictor().UpdateDirection(bpc, false, false)
	}
	var cyc uint64
	for ; cyc < 10000 && !r.e.halted; cyc++ {
		r.h.BeginCycle(cyc)
		r.d.begin()
		r.c.Step(cyc)
		r.h.Tick(cyc)
	}
	if !r.e.halted {
		t.Fatal("did not halt")
	}
	if r.c.Stats.Mispredicts == 0 {
		t.Fatal("branch was not mispredicted; test setup broken")
	}
	if len(r.d.wrongLoads) == 0 {
		t.Fatal("no wrong-path loads continued to memory")
	}
	// The wrong loads must target the fall-through path's addresses.
	want := map[uint64]bool{arr: true, arr + 64: true, arr + 128: true}
	for _, a := range r.d.wrongLoads {
		if !want[a] {
			t.Errorf("unexpected wrong load to %#x", a)
		}
	}
	// Architectural state must be untouched by wrong-path execution.
	if r.c.IntRegs[4] != 0 || r.c.IntRegs[6] != 0 || r.c.IntRegs[7] != 0 {
		t.Error("wrong-path loads altered registers")
	}
}

func TestNoWrongPathLoadsWhenDisabled(t *testing.T) {
	b := asm.New()
	arr := b.Alloc("arr", 256, 0)
	b.Li(1, int64(arr))
	b.Li(2, 1)
	b.Br(isa.BNE, 2, 0, "skip")
	b.Ld(4, 0, 1)
	b.Label("skip")
	b.Halt()
	p, _ := b.Build()
	r := buildRig(t, DefaultConfig(), p) // WrongPathExec off (orig)
	r.c.StartMain()
	bpc := 2
	for i := 0; i < 8; i++ {
		r.c.Predictor().UpdateDirection(bpc, false, false)
	}
	var cyc uint64
	for ; cyc < 10000 && !r.e.halted; cyc++ {
		r.h.BeginCycle(cyc)
		r.d.begin()
		r.c.Step(cyc)
		r.h.Tick(cyc)
	}
	if len(r.d.wrongLoads) != 0 {
		t.Error("orig configuration issued wrong-path loads")
	}
}

func TestSTAEventsReachEnv(t *testing.T) {
	b := asm.New()
	b.Begin(1)
	b.Li(1, 0)
	b.Label("body")
	b.Fork("body")
	b.Tsagd()
	b.OpI(isa.ADDI, 1, 1, 1)
	b.Abort()
	b.Halt() // not reached in this sequential harness; env stops at abort
	p, _ := b.Build()
	r := buildRig(t, DefaultConfig(), p)
	r.c.StartMain()
	var cyc uint64
	for ; cyc < 10000 && r.e.aborts == 0; cyc++ {
		r.h.BeginCycle(cyc)
		r.d.begin()
		r.c.Step(cyc)
		r.h.Tick(cyc)
	}
	if r.e.begins != 1 {
		t.Errorf("begins = %d", r.e.begins)
	}
	if len(r.e.forks) != 1 || r.e.forks[0] != int(p.Symbols["body"]) {
		t.Errorf("forks = %v", r.e.forks)
	}
	if r.e.aborts != 1 {
		t.Errorf("aborts = %d", r.e.aborts)
	}
	if r.c.Running() {
		t.Error("core still running after ABORT commit")
	}
}

func TestStartThreadPoisonsUnforwardedRegs(t *testing.T) {
	b := asm.New()
	b.Halt()
	p, _ := b.Build()
	r := buildRig(t, DefaultConfig(), p)
	var regs [isa.NumIntRegs]int64
	regs[1] = 42
	regs[2] = 43
	r.c.StartThread(0, 1<<1, &regs, false)
	if r.c.IntRegs[1] != 42 {
		t.Error("forwarded register lost")
	}
	if r.c.IntRegs[2] != PoisonValue {
		t.Error("unforwarded register not poisoned")
	}
	if r.c.IntRegs[0] != 0 {
		t.Error("r0 poisoned")
	}
}

func TestLoadsAllowedGate(t *testing.T) {
	b := asm.New()
	a := b.Alloc("x", 8, 0)
	b.InitWord(a, 5)
	b.Li(1, int64(a))
	b.Ld(2, 0, 1)
	b.Halt()
	p, _ := b.Build()
	r := buildRig(t, DefaultConfig(), p)
	r.d.gate = true
	r.c.StartMain()
	var cyc uint64
	for ; cyc < 100; cyc++ {
		r.h.BeginCycle(cyc)
		r.d.begin()
		r.c.Step(cyc)
		r.h.Tick(cyc)
	}
	if r.e.halted {
		t.Fatal("program halted although loads were gated")
	}
	r.d.gate = false
	for ; cyc < 10000 && !r.e.halted; cyc++ {
		r.h.BeginCycle(cyc)
		r.d.begin()
		r.c.Step(cyc)
		r.h.Tick(cyc)
	}
	if !r.e.halted || r.c.IntRegs[2] != 5 {
		t.Error("load did not complete after gate opened")
	}
}

func TestKillDiscardsState(t *testing.T) {
	b := asm.New()
	b.Li(1, 0)
	b.Label("spin")
	b.OpI(isa.ADDI, 1, 1, 1)
	b.Jmp("spin")
	p, _ := b.Build()
	r := buildRig(t, DefaultConfig(), p)
	r.c.StartMain()
	for cyc := uint64(0); cyc < 50; cyc++ {
		r.h.BeginCycle(cyc)
		r.d.begin()
		r.c.Step(cyc)
		r.h.Tick(cyc)
	}
	r.c.Kill()
	if r.c.Running() {
		t.Error("core running after Kill")
	}
	if r.c.Step(51) {
		t.Error("killed core still stepping")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := DefaultConfig()
	bad.IssueWidth = 0
	if bad.Validate() == nil {
		t.Error("zero width accepted")
	}
	bad = DefaultConfig()
	bad.IntALU = 0
	if bad.Validate() == nil {
		t.Error("zero ALUs accepted")
	}
}

func TestSingleIssueSlower(t *testing.T) {
	prog := func() *isa.Program {
		b := asm.New()
		b.Li(1, 0)
		b.Li(2, 200)
		b.Label("loop")
		b.OpI(isa.ADDI, 3, 1, 5)
		b.OpI(isa.ADDI, 4, 1, 6)
		b.OpI(isa.ADDI, 5, 1, 7)
		b.OpI(isa.ADDI, 1, 1, 1)
		b.Br(isa.BLT, 1, 2, "loop")
		b.Halt()
		p, _ := b.Build()
		return p
	}
	wide := buildRig(t, DefaultConfig(), prog())
	wideCycles := wide.runToHalt(t, 1000000)
	narrowCfg := DefaultConfig()
	narrowCfg.IssueWidth = 1
	narrowCfg.IntALU = 1
	narrowCfg.IntMul = 1
	narrowCfg.FPAdd = 1
	narrowCfg.FPMul = 1
	narrow := buildRig(t, narrowCfg, prog())
	narrowCycles := narrow.runToHalt(t, 1000000)
	if narrowCycles <= wideCycles {
		t.Errorf("1-issue (%d cyc) not slower than 8-issue (%d cyc)", narrowCycles, wideCycles)
	}
}
