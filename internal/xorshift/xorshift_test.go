package xorshift

import "testing"

// TestStreamPinned pins the 13/7/17 stream: every seeded workload, genome,
// bootstrap interval and chaos schedule in the repository depends on these
// exact values.
func TestStreamPinned(t *testing.T) {
	r := New(1)
	for i, want := range []uint64{0x40822041, 0x100041060c011441, 0x9b1e842f6e862629} {
		if got := r.Uint64(); got != want {
			t.Fatalf("draw %d = %#x, want %#x", i, got, want)
		}
	}
	if got, want := New(0).Uint64(), uint64(0xdc1b77ae0bf34dad); got != want {
		t.Fatalf("zero seed first draw = %#x, want %#x (golden-ratio substitution)", got, want)
	}
	if Next(0) != 0 {
		t.Fatal("zero is a fixed point of the raw step")
	}
}
