package trace

// Ring is a bounded buffer that keeps the most recently pushed values,
// overwriting the oldest once full. It does no locking: owners guard it
// with their own mutex. The zero value holds nothing; NewRing sizes it.
type Ring[T any] struct {
	buf  []T
	head int // next write position
	n    int // retained values
}

// NewRing returns a ring retaining at most size values (size > 0).
func NewRing[T any](size int) Ring[T] {
	return Ring[T]{buf: make([]T, size)}
}

// Push appends v, reporting whether it evicted the oldest value.
func (r *Ring[T]) Push(v T) (evicted bool) {
	evicted = r.n == len(r.buf)
	r.buf[r.head] = v
	r.head = (r.head + 1) % len(r.buf)
	if !evicted {
		r.n++
	}
	return evicted
}

// Len returns how many values the ring retains.
func (r *Ring[T]) Len() int { return r.n }

// Cap returns the ring's bound (0 for the zero value).
func (r *Ring[T]) Cap() int { return len(r.buf) }

// At returns the i-th retained value, 0 being the oldest.
func (r *Ring[T]) At(i int) T {
	j := r.head - r.n + i
	if j < 0 {
		j += len(r.buf)
	}
	return r.buf[j]
}

// Slice returns a copy of the retained values, oldest first.
func (r *Ring[T]) Slice() []T {
	out := make([]T, r.n)
	for i := range out {
		out[i] = r.At(i)
	}
	return out
}
