package tunnel

// ring is a growable FIFO queue. It reuses its slots once it has grown
// to the queue's peak length, so steady-state push and pop allocate
// nothing.
type ring[T any] struct {
	buf  []T // len(buf) is zero or a power of two
	head int
	n    int
}

func (r *ring[T]) len() int { return r.n }

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		grown := make([]T, max(8, 2*len(r.buf)))
		k := copy(grown, r.buf[r.head:])
		copy(grown[k:], r.buf[:r.head])
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// front returns the oldest element, which stays queued; the ring must
// not be empty.
func (r *ring[T]) front() *T { return &r.buf[r.head] }

// pop removes and returns the oldest element; the ring must not be
// empty.
func (r *ring[T]) pop() T {
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}
