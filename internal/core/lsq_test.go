package core

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/interp"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/memimg"
)

// orderDMem wraps testDMem and records the address order in which stores
// reach memory at commit.
type orderDMem struct {
	*testDMem
	commits []uint64
}

func (d *orderDMem) CommitStore(cycle uint64, addr uint64, val int64, target bool, pc int) {
	d.commits = append(d.commits, addr)
	d.testDMem.CommitStore(cycle, addr, val, target, pc)
}

// TestLSQCommitOrderUnderMispredicts is the regression test for the LSQ
// ring buffer: stores must leave the queue in program order — oldest
// first — even while data-dependent mispredicts force partial squashes
// (recover truncates the ring to a prefix) and the queue index wraps its
// backing array many times over. The original slice implementation
// spliced the head off with an O(n) copy; the ring must preserve the
// exact same age order.
func TestLSQCommitOrderUnderMispredicts(t *testing.T) {
	const n = 96 // several times the LSQ capacity, forcing wrap-around
	b := asm.New()
	arr := b.Alloc("arr", 8*n, 0)
	out := b.Alloc("out", 8*n, 0)
	// arr[k] is a pseudo-random bit so the branch below is unpredictable.
	v := uint32(0x9e3779b9)
	for k := 0; k < n; k++ {
		v ^= v << 13
		v ^= v >> 17
		v ^= v << 5
		b.InitWord(arr+uint64(8*k), int64(v&1))
	}
	b.Li(1, 0)          // k
	b.Li(2, n)          // limit
	b.Li(3, int64(arr)) // arr base
	b.Li(4, int64(out)) // out base
	b.Label("loop")
	b.OpI(isa.SLLI, 5, 1, 3)
	b.Op3(isa.ADD, 6, 5, 3)
	b.Ld(7, 0, 6) // arr[k]: 0 or 1, load-dependent branch => mispredicts
	b.Op3(isa.ADD, 8, 5, 4)
	b.Br(isa.BEQ, 7, 0, "even")
	b.OpI(isa.ADDI, 9, 7, 5)
	b.Jmp("store")
	b.Label("even")
	b.OpI(isa.ADDI, 9, 7, 11)
	b.Label("store")
	b.St(9, 0, 8) // out[k]
	b.OpI(isa.ADDI, 1, 1, 1)
	b.Br(isa.BLT, 1, 2, "loop")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	h, err := mem.NewHierarchy(1, mem.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	img := memimg.New()
	asm.LoadData(p, img)
	d := &orderDMem{testDMem: newTestDMem(img)}
	e := &testEnv{}
	c, err := New(DefaultConfig(), isa.Predecode(p), h.IUnit(0), d, e)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{c: c, h: h, d: d.testDMem, e: e, prog: p}
	r.warmI(t)

	c.StartMain()
	var cyc uint64
	for ; cyc < 200_000; cyc++ {
		h.BeginCycle(cyc)
		d.begin()
		c.Step(cyc)
		h.Tick(cyc)
		if e.halted {
			break
		}
	}
	if !e.halted {
		t.Fatal("program did not halt")
	}

	// Every committed store must be out[k] for consecutive k: program order,
	// no skips, no duplicates from squashed wrong-path stores.
	if len(d.commits) != n {
		t.Fatalf("committed %d stores, want %d", len(d.commits), n)
	}
	for k, addr := range d.commits {
		if want := out + uint64(8*k); addr != want {
			t.Fatalf("commit %d went to %#x, want %#x (program order violated)", k, addr, want)
		}
	}
	if c.Stats.Mispredicts == 0 {
		t.Fatal("no mispredicts: the test did not exercise recovery")
	}

	// And the architectural outcome still matches the interpreter.
	ref, err := interp.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := img.Checksum(), ref.MemCheck; got != want {
		t.Errorf("memory checksum %#x, interp says %#x", got, want)
	}
}

// cycleDMem wraps testDMem and records the cycle each load reaches memory.
type cycleDMem struct {
	*testDMem
	loads []uint64
}

func (d *cycleDMem) TryLoad(cycle uint64, addr uint64, wrong bool, pc int) LoadResult {
	res := d.testDMem.TryLoad(cycle, addr, wrong, pc)
	if res.Status == LoadForwarded {
		d.loads = append(d.loads, cycle)
	}
	return res
}

// TestBlockedLoadIssuesWithItsStore pins the timing of a load held back by
// an older store whose address is unknown: the load sits out of the ready
// set while it waits, and must still reach memory in the very cycle the
// store resolves its address, as a load retried every cycle would.
func TestBlockedLoadIssuesWithItsStore(t *testing.T) {
	b := asm.New()
	a := b.Alloc("arr", 128, 0)
	b.Li(1, int64(a))
	b.Li(4, 640)
	b.Li(5, 10)
	b.Op3(isa.DIV, 4, 4, 5) // the store address waits on two divisions
	b.Op3(isa.DIV, 4, 4, 5)
	b.Op3(isa.MUL, 4, 4, 0)
	b.Op3(isa.ADD, 6, 1, 4)
	b.St(5, 0, 6)
	b.Ld(3, 64, 1) // address ready at once; blocked by the store
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	h, err := mem.NewHierarchy(1, mem.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	img := memimg.New()
	asm.LoadData(p, img)
	d := &cycleDMem{testDMem: newTestDMem(img)}
	e := &testEnv{}
	c, err := New(DefaultConfig(), isa.Predecode(p), h.IUnit(0), d, e)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{c: c, h: h, d: d.testDMem, e: e, prog: p}
	r.warmI(t)
	c.StartMain()
	var storeAt uint64
	blocked := false
	for cyc := uint64(0); cyc < 10_000 && !e.halted; cyc++ {
		h.BeginCycle(cyc)
		d.begin()
		c.Step(cyc)
		h.Tick(cyc)
		for p := 0; p < c.robCount; p++ {
			idx := c.slotAt(p)
			if c.rob.class[idx]&isa.ClassStore != 0 && c.rob.flags[idx]&fAddrKnown != 0 && storeAt == 0 {
				storeAt = cyc
			}
		}
		for _, w := range c.blockedMask {
			blocked = blocked || w != 0
		}
	}
	if !e.halted {
		t.Fatal("program did not halt")
	}
	if !blocked {
		t.Fatal("the load was never blocked; the test covers nothing")
	}
	if len(d.loads) != 1 || d.loads[0] != storeAt {
		t.Fatalf("load reached memory at cycles %v, store address resolved at %d", d.loads, storeAt)
	}
}
