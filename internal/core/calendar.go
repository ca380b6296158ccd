package core

import "math/bits"

// calSlots is the completion calendar's horizon in cycles. It is a power of
// two above every fixed execute latency (isa.LatIntDiv is the longest), so
// ALU ops, stores, markers and forwarded loads always land in a bucket; only
// a load whose memory request completes further out is polled instead.
const calSlots = 32 // one occupancy bit per bucket in calendar.occ

// calendar is a timing wheel of ROB-slot bitmaps keyed by completion cycle.
// Every scheduled slot completes at some cycle t in (now, now+calSlots), and
// sits in bucket t%calSlots; occ has bit b set exactly while bucket b holds a
// slot. A slot is in at most one bucket, so removal is exact and the
// earliest bucket is always a real completion.
type calendar struct {
	words  int      // bitmap words per bucket
	bucket []uint64 // calSlots rows of words each
	occ    uint32
	now    uint64 // every bucket for cycles <= now has been drained
}

func newCalendar(robSize int) calendar {
	words := (robSize + 63) / 64
	return calendar{words: words, bucket: make([]uint64, calSlots*words)}
}

// fits reports whether cycle at (after now) lies inside the horizon.
func (k *calendar) fits(at uint64) bool { return at-k.now < calSlots }

func (k *calendar) row(at uint64) []uint64 {
	b := int(at & (calSlots - 1))
	return k.bucket[b*k.words : (b+1)*k.words]
}

// add schedules slot to complete at cycle at; the caller checks fits.
func (k *calendar) add(slot int, at uint64) {
	maskSet(k.row(at), slot)
	k.occ |= 1 << (at & (calSlots - 1))
}

// remove unschedules slot from cycle at's bucket (a no-op if it is not
// there).
func (k *calendar) remove(slot int, at uint64) {
	row := k.row(at)
	maskClear(row, slot)
	for _, w := range row {
		if w != 0 {
			return
		}
	}
	k.occ &^= 1 << (at & (calSlots - 1))
}

// drain moves every slot completing in (now, cycle] into due and advances
// now to cycle. It reports whether it moved any.
func (k *calendar) drain(cycle uint64, due []uint64) bool {
	n := cycle - k.now
	k.now = cycle
	sel := k.occ
	if n < calSlots {
		sel &= bits.RotateLeft32(1<<n-1, int((cycle-n+1)&(calSlots-1)))
	}
	if sel == 0 {
		return false
	}
	k.occ &^= sel
	for sel != 0 {
		b := bits.TrailingZeros32(sel)
		sel &= sel - 1
		row := k.bucket[b*k.words : (b+1)*k.words]
		for i, w := range row {
			due[i] |= w
			row[i] = 0
		}
	}
	return true
}

// next returns the earliest scheduled completion cycle, or neverWake.
func (k *calendar) next() uint64 {
	if k.occ == 0 {
		return neverWake
	}
	r := bits.RotateLeft32(k.occ, -int((k.now+1)&(calSlots-1)))
	return k.now + 1 + uint64(bits.TrailingZeros32(r))
}

// reset empties the calendar.
func (k *calendar) reset() {
	if k.occ == 0 {
		return
	}
	for i := range k.bucket {
		k.bucket[i] = 0
	}
	k.occ = 0
}
