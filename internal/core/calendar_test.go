package core

import (
	"math/bits"
	"testing"

	"repro/internal/asm"
	"repro/internal/interp"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/memimg"
	"repro/internal/xorshift"
)

func TestCalendarDrainAndNext(t *testing.T) {
	k := newCalendar(128)
	due := make([]uint64, 2)
	k.drain(100, due) // now = 100
	k.add(3, 101)
	k.add(70, 120)
	k.add(5, 131) // the far edge of the horizon
	if !k.fits(131) || k.fits(132) {
		t.Fatal("horizon is (now, now+calSlots)")
	}
	if got := k.next(); got != 101 {
		t.Fatalf("next = %d, want 101", got)
	}
	k.remove(3, 101)
	if got := k.next(); got != 120 {
		t.Fatalf("next after remove = %d, want 120", got)
	}
	if k.drain(119, due) || due[0]|due[1] != 0 {
		t.Fatal("drained an entry before its cycle")
	}
	if !k.drain(125, due) || due[1] != 1<<(70-64) || due[0] != 0 {
		t.Fatalf("drain through 125 = %x, want slot 70", due)
	}
	due[0], due[1] = 0, 0
	if got := k.next(); got != 131 {
		t.Fatalf("next = %d, want 131", got)
	}
	// A gap past the whole horizon drains everything.
	k.add(9, 130)
	if !k.drain(1000, due) || due[0] != 1<<5|1<<9 {
		t.Fatalf("gap drain = %x, want slots 5 and 9", due)
	}
	if k.next() != neverWake || k.occ != 0 {
		t.Fatal("calendar not empty after draining everything")
	}
}

// calDMem is a data memory with a cache-like latency model: a load to a
// block it has seen hits (its request is Done at issue, two cycles out);
// any other load misses and its request completes only when tick reaches
// its fill cycle, thirty cycles later — the core must poll it.
type calDMem struct {
	img     *memimg.Image
	used    int
	hot     map[uint64]bool
	pending []*mem.Request
	fillAt  []uint64
	hits    int
	misses  int
}

const (
	calHitLat  = 2
	calMissLat = 30
)

func (d *calDMem) TryLoad(cycle uint64, addr uint64, wrong bool, pc int) LoadResult {
	if d.used >= 2 {
		return LoadResult{Status: LoadNoPort}
	}
	d.used++
	r := &mem.Request{Addr: addr, Issued: cycle}
	if d.hot[addr>>6] {
		d.hits++
		r.Done, r.DoneCycle = true, cycle+calHitLat
	} else {
		d.misses++
		d.hot[addr>>6] = true
		d.pending = append(d.pending, r)
		d.fillAt = append(d.fillAt, cycle+calMissLat)
	}
	return LoadResult{Status: LoadIssued, Value: d.img.ReadWord(addr), Req: r}
}

func (d *calDMem) WrongLoad(cycle uint64, addr uint64, pc int) bool {
	if d.used >= 2 {
		return false
	}
	d.used++
	return true
}

func (d *calDMem) CommitStore(cycle uint64, addr uint64, val int64, target bool, pc int) {
	d.img.WriteWord(addr, val)
}

func (d *calDMem) LoadsAllowed() bool { return true }

// tick completes the fills due at cycle; the value is usable next cycle.
func (d *calDMem) tick(cycle uint64) {
	k := 0
	for i, r := range d.pending {
		if d.fillAt[i] == cycle {
			r.Done, r.DoneCycle = true, cycle+1
			continue
		}
		d.pending[k], d.fillAt[k] = r, d.fillAt[i]
		k++
	}
	d.pending, d.fillAt = d.pending[:k], d.fillAt[:k]
}

// nextFill is the earliest pending fill cycle, or neverWake.
func (d *calDMem) nextFill() uint64 {
	w := uint64(neverWake)
	for _, at := range d.fillAt {
		w = min(w, at)
	}
	return w
}

// refNextWake is NextWake as it was before the completion calendar: the
// executing entries' completion cycles found by scanning an execMask over
// the ROB. Kept as the calendar's reference; scanned reports whether the
// answer came from that scan.
func refNextWake(c *Core, cycle uint64) (wake uint64, scanned bool) {
	if !c.running && c.robCount == 0 && c.wrongCount == 0 {
		return neverWake, false
	}
	if c.wrongCount > 0 {
		return cycle + 1, false
	}
	if c.running && !c.fetchStopped {
		if c.redirectStall > 0 {
			return cycle + 1, false
		}
		if c.robCount < c.cfg.ROBSize {
			in := c.code.Prog.At(c.fetchPC)
			if !(in.Op.IsMem() && c.lsqCount >= c.cfg.LSQSize) {
				return cycle + 1, false
			}
		}
	}
	if c.robCount > 0 && c.rob.state[c.robHead] == stDone {
		return cycle + 1, false
	}
	for _, w := range c.readyMask {
		if w != 0 {
			return cycle + 1, false
		}
	}
	execMask := make([]uint64, len(c.readyMask))
	for p := 0; p < c.robCount; p++ {
		if idx := c.slotAt(p); c.rob.state[idx] == stExecuting {
			maskSet(execMask, idx)
		}
	}
	wake = neverWake
	for wi, word := range execMask {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			idx := wi<<6 | b
			if r := c.rob.req[idx]; r != nil {
				if r.Done && r.DoneCycle < wake {
					wake = r.DoneCycle
				}
				continue
			}
			if c.rob.doneAt[idx] < wake {
				wake = c.rob.doneAt[idx]
			}
		}
	}
	if wake != neverWake && wake <= cycle {
		wake = cycle + 1
	}
	return wake, true
}

// calendarProgram loops over a table of random words. Each iteration
// loads one (a miss on first touch of its block, a hit after), runs it
// through a DIV (20 cycles) and two dependent branches that each
// mispredict about half the time (with loads for the wrong path behind
// them), and keeps an independent, older DIV and FDIV (12 cycles) plus ALU
// ops in flight, pad ALU ops delaying their issue. Different pads make the
// older long-latency ops finish in the same cycle as the branches.
func calendarProgram(t *testing.T, pad int) *isa.Program {
	t.Helper()
	b := asm.New()
	const words = 256
	base := b.Alloc("data", words*8, 64)
	scratch := b.Alloc("scratch", 8, 8)
	r := xorshift.New(uint64(pad) + 1)
	for i := uint64(0); i < words; i++ {
		b.InitWord(base+8*i, int64(r.Uint64()>>1))
	}
	b.Li(1, 0)
	b.Li(2, 600)
	b.Li(5, int64(base))
	b.Li(17, int64(scratch))
	b.Li(21, 1)
	b.Fli(3, 1.5)
	b.Label("loop")
	b.OpI(isa.ANDI, 6, 1, words-1)
	b.OpI(isa.SLLI, 6, 6, 3)
	b.Op3(isa.ADD, 7, 5, 6)
	b.Ld(8, 0, 7)
	b.OpI(isa.ADDI, 4, 8, 0)
	for i := 0; i < pad; i++ {
		b.OpI(isa.ADDI, 4, 4, 1)
	}
	b.Op3(isa.DIV, 10, 4, 21) // older long-latency op, pad cycles behind the load
	b.Emit(isa.Inst{Op: isa.I2F, Rd: 2, Rs1: 4})
	b.Op3(isa.FDIV, 1, 2, 3)
	b.Op3(isa.DIV, 9, 8, 21) // the branch's 20-cycle producer
	// A store whose address waits on the DIV holds back the loads behind
	// it, so a mispredict finds them address-ready but unissued: they
	// continue down the wrong path.
	b.OpI(isa.ANDI, 16, 9, 0)
	b.Op3(isa.ADD, 16, 16, 17)
	b.St(1, 0, 16)
	b.OpI(isa.ANDI, 18, 9, 2)
	b.OpI(isa.ANDI, 9, 9, 1)
	b.Br(isa.BEQ, 9, 0, "skip")
	b.Br(isa.BNE, 18, 0, "skip") // completes in the same cycle as the BEQ
	b.Ld(11, 8, 7)
	b.Op3(isa.ADD, 12, 12, 11)
	b.Op3(isa.FADD, 4, 4, 1)
	b.Label("skip")
	// Two chained DIVs on both paths are still executing when a
	// mispredict squashes them.
	b.Op3(isa.DIV, 23, 1, 21)
	b.Op3(isa.DIV, 23, 23, 21)
	b.Op3(isa.ADD, 24, 24, 23)
	b.Op3(isa.ADD, 13, 13, 10)
	b.Emit(isa.Inst{Op: isa.F2I, Rd: 14, Rs1: 1})
	b.Op3(isa.XOR, 15, 15, 14)
	b.OpI(isa.ADDI, 1, 1, 1)
	b.Br(isa.BLT, 1, 2, "loop")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

type calRun struct {
	cycles   uint64
	stats    Stats
	intRegs  [isa.NumIntRegs]int64
	fpRegs   [isa.NumFPRegs]float64
	memCheck uint64
	coincide int // cycles where a mispredicting branch completed with an older DIV/FDIV
}

// calCover counts how often a run exercised the paths under test.
type calCover struct {
	stepped int // cycles stepped
	scanned int // NextWake answers that came from the completion scan
}

// runCalendar runs p to HALT on a wrong-path core over calDMem, either
// stepping every cycle or jumping to the earliest of the core's NextWake,
// the next fill and the instruction side's next event. Every stepped cycle
// checks NextWake against refNextWake.
func runCalendar(t *testing.T, p *isa.Program, skip bool) (out calRun, d *calDMem, cov calCover) {
	t.Helper()
	h, err := mem.NewHierarchy(1, mem.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	img := memimg.New()
	asm.LoadData(p, img)
	d = &calDMem{img: img, hot: map[uint64]bool{}}
	e := &testEnv{}
	cfg := DefaultConfig()
	cfg.WrongPathExec = true
	c, err := New(cfg, isa.Predecode(p), h.IUnit(0), d, e)
	if err != nil {
		t.Fatal(err)
	}
	c.StartMain()
	var due []int
	for cycle := uint64(0); ; {
		if cycle > 2_000_000 {
			t.Fatal("program did not halt")
		}
		// The entries complete will process this cycle, in age order.
		due = due[:0]
		for p := 0; p < c.robCount; p++ {
			idx := c.slotAt(p)
			if c.rob.state[idx] != stExecuting {
				continue
			}
			if r := c.rob.req[idx]; r != nil && r.Done && r.DoneCycle <= cycle || r == nil && c.rob.doneAt[idx] <= cycle {
				due = append(due, idx)
			}
		}
		h.BeginCycle(cycle)
		d.used = 0
		c.Step(cycle)
		cov.stepped++
		h.Tick(cycle)
		d.tick(cycle)
		if e.halted {
			out.cycles = cycle
			break
		}
		long := false
		for _, idx := range due {
			switch c.code.At(int(c.rob.pc[idx])).Op {
			case isa.DIV, isa.FDIV:
				long = true
			case isa.BEQ:
				if long && c.rob.bflags[idx]&bMispredict != 0 {
					out.coincide++
				}
			}
		}
		wake := c.NextWake(cycle)
		ref, scanned := refNextWake(c, cycle)
		if wake != ref {
			t.Fatalf("cycle %d: calendar NextWake %d, execMask scan %d", cycle, wake, ref)
		}
		if scanned {
			cov.scanned++
		}
		next := cycle + 1
		if skip {
			w := min(wake, d.nextFill(), h.NextWake(cycle))
			if w == neverWake {
				t.Fatalf("cycle %d: core inert with no pending event", cycle)
			}
			next = max(next, w)
		}
		cycle = next
	}
	out.stats = c.Stats
	out.intRegs = c.IntRegs
	out.fpRegs = c.FPRegs
	out.memCheck = img.Checksum()
	return out, d, cov
}

// TestCalendarMatchesPolling drives completion through the calendar and
// the polled set with DIV, FDIV, ALU, load-hit and load-miss latencies,
// and mispredicted branches completing in the same cycle as older
// long-latency ops: stepped and skipping runs must agree with each other
// and with the functional interpreter, and NextWake with the execMask
// scan it replaced.
func TestCalendarMatchesPolling(t *testing.T) {
	coincide := 0
	for pad := 0; pad < 8; pad++ {
		p := calendarProgram(t, pad)
		ref, err := interp.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		stepped, d, cov := runCalendar(t, p, false)
		skipped, _, skipCov := runCalendar(t, p, true)
		if stepped != skipped {
			t.Fatalf("pad %d: stepped run %+v, skipping run %+v", pad, stepped, skipped)
		}
		if stepped.intRegs != ref.IntRegs || stepped.fpRegs != ref.FPRegs || stepped.memCheck != ref.MemCheck {
			t.Fatalf("pad %d: architectural state differs from interp", pad)
		}
		if d.hits == 0 || d.misses == 0 || stepped.stats.Mispredicts == 0 || stepped.stats.WrongPathLoadsIssued == 0 {
			t.Fatalf("pad %d: hits %d misses %d mispredicts %d wrong-path loads %d; the mix is not covered",
				pad, d.hits, d.misses, stepped.stats.Mispredicts, stepped.stats.WrongPathLoadsIssued)
		}
		if cov.scanned == 0 || skipCov.stepped >= cov.stepped {
			t.Fatalf("pad %d: %d NextWake scans, %d of %d cycles stepped when skipping; the calendar's wake is not covered",
				pad, cov.scanned, skipCov.stepped, cov.stepped)
		}
		coincide += stepped.coincide
	}
	if coincide == 0 {
		t.Fatal("no mispredicted branch completed in the same cycle as an older DIV/FDIV")
	}
	t.Logf("%d same-cycle mispredict recoveries behind long-latency ops", coincide)
}
