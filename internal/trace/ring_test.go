package trace

import "testing"

func TestRingBounded(t *testing.T) {
	r := NewRing[uint64](4)
	evicted := 0
	for i := uint64(0); i < 10; i++ {
		if r.Push(i) {
			evicted++
		}
	}
	if evicted != 6 {
		t.Errorf("evicted %d values, want 6", evicted)
	}
	got := r.Slice()
	if len(got) != 4 || r.Len() != 4 {
		t.Fatalf("retained %d values (Len %d), want 4", len(got), r.Len())
	}
	// Only the most recent four survive, oldest first.
	for i, v := range got {
		if want := uint64(6 + i); v != want || r.At(i) != want {
			t.Errorf("value %d = %d (At %d), want %d", i, v, r.At(i), want)
		}
	}
	// Slice returns a copy.
	got[0] = 99
	if r.At(0) != 6 {
		t.Error("Slice exposed internal storage")
	}
}

func TestRingBoundedPartial(t *testing.T) {
	// A ring that never fills keeps everything in push order.
	r := NewRing[uint64](8)
	for i := uint64(0); i < 3; i++ {
		if r.Push(i) {
			t.Fatalf("push %d evicted from a ring with room", i)
		}
	}
	got := r.Slice()
	if len(got) != 3 || got[0] != 0 || got[2] != 2 || r.Cap() != 8 {
		t.Errorf("values = %v, cap %d", got, r.Cap())
	}
}
