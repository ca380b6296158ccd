package mem

import (
	"testing"

	"repro/internal/xorshift"
)

// TestWarmStoreMemoMatchesUnmemoized drives two hierarchies with the same
// random fast-forward traffic — loads and sequential stores from one TU
// per interval over a few hot blocks — and compares every L1D line's
// residency, flags and dirty bit. One uses WarmSequentialStore and its
// memo; the other refreshes every other TU on every store. Between
// intervals a "detailed" step evicts blocks from the other TUs and refills
// them clean, which is the change BeginWarm must not paper over.
func TestWarmStoreMemoMatchesUnmemoized(t *testing.T) {
	const tus = 4
	cfg := DefaultConfig()
	memo, err := NewHierarchy(tus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewHierarchy(tus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := xorshift.New(3)
	addr := func() uint64 { return uint64(r.Intn(6)*cfg.L1DBlock + 8*r.Intn(8)) }
	var last uint64 // the last store's address
	for interval := 0; interval < 2000; interval++ {
		memo.BeginWarm()
		src := r.Intn(2)
		for op := 0; op < 1+r.Intn(4); op++ {
			a := addr()
			if r.Intn(3) == 0 {
				memo.DUnit(src).WarmLoad(a)
				ref.DUnit(src).WarmLoad(a)
				continue
			}
			last = a
			memo.WarmSequentialStore(src, a)
			for tu := 0; tu < tus; tu++ {
				if tu == src {
					ref.DUnit(tu).WarmStore(a)
				} else {
					ref.DUnit(tu).warmUpdate(a)
				}
			}
		}
		// Detailed execution between intervals: some TU drops the block
		// stored last and fetches it again clean.
		tu := r.Intn(tus)
		for _, h := range []*Hierarchy{memo, ref} {
			l1 := h.DUnit(tu).l1
			l1.Remove(l1.BlockAddr(last))
			l1.Insert(l1.BlockAddr(last), 0, false)
		}
	}
	for tu := 0; tu < tus; tu++ {
		ml1, rl1 := memo.DUnit(tu).l1, ref.DUnit(tu).l1
		mb, rb := ml1.ResidentBlocks(), rl1.ResidentBlocks()
		if len(mb) != len(rb) {
			t.Fatalf("TU %d: %d resident blocks with the memo, %d without", tu, len(mb), len(rb))
		}
		for i, b := range rb {
			if mb[i] != b {
				t.Fatalf("TU %d: resident block %d is %#x with the memo, %#x without", tu, i, mb[i], b)
			}
			mf, md, _ := ml1.Remove(b)
			rf, rd, _ := rl1.Remove(b)
			if mf != rf || md != rd {
				t.Errorf("TU %d block %#x: flags/dirty %d/%v with the memo, %d/%v without", tu, b, mf, md, rf, rd)
			}
		}
	}
}

// TestWarmStoreMemoForgets pins the two conditions under which the memo
// must not skip a refresh: a new fast-forward interval (detailed execution
// may have refilled another TU's copy clean) and a different storing TU
// (the previous source's own copy may have been evicted and reloaded
// clean by its loads).
func TestWarmStoreMemoForgets(t *testing.T) {
	cfg := DefaultConfig()
	const x = 0x1000
	conflict := uint64(x + cfg.L1DSize) // same direct-mapped L1D set as x
	dirty := func(h *Hierarchy, tu int) bool {
		_, d, ok := h.DUnit(tu).l1.Remove(x)
		if !ok {
			t.Fatalf("TU %d lost block %#x", tu, x)
		}
		return d
	}

	h, err := NewHierarchy(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.DUnit(1).WarmLoad(x)
	h.BeginWarm()
	h.WarmSequentialStore(0, x)
	h.DUnit(1).l1.Remove(x) // detailed execution: TU 1 refetches x clean
	h.DUnit(1).l1.Insert(x, 0, false)
	h.BeginWarm()
	h.WarmSequentialStore(0, x)
	if !dirty(h, 1) {
		t.Error("a store in a new interval did not refresh TU 1's clean copy")
	}

	h, err = NewHierarchy(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.BeginWarm()
	h.WarmSequentialStore(0, x)
	h.DUnit(0).WarmLoad(conflict) // evicts x from TU 0 ...
	h.DUnit(0).WarmLoad(x)        // ... and reloads it clean
	h.WarmSequentialStore(1, x)
	if !dirty(h, 0) {
		t.Error("a store from another TU did not refresh TU 0's clean copy")
	}
}
