// Package fifo holds the ring buffer the platforms queue waiting work
// in: the serverless pool's per-function activation queues (DESIGN.md
// §17) and each IaaS service's backlog.
package fifo

// Ring is a growable FIFO ring buffer. Its capacity is a power of two so
// the wrap is a mask; it doubles when full and never shrinks, so a queue
// allocates only when its backlog reaches a new high-water mark. The
// zero value is an empty ring.
type Ring[T any] struct {
	buf  []T
	head int
	n    int
}

// Push appends v behind the newest value.
//
//amoeba:noalloc
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		//amoeba:allowalloc(ring growth: the buffer doubles only when the backlog reaches a new high-water mark)
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// Len returns the number of values in the ring.
func (r *Ring[T]) Len() int { return r.n }

// Front returns the oldest value; the ring must be non-empty.
func (r *Ring[T]) Front() T { return r.buf[r.head] }

// Pop drops the oldest value; the ring must be non-empty. The slot is
// zeroed, so the ring keeps no reference to what it has handed out.
//
//amoeba:noalloc
func (r *Ring[T]) Pop() {
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
}

func (r *Ring[T]) grow() {
	size := 2 * len(r.buf)
	if size == 0 {
		size = 8
	}
	buf := make([]T, size)
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}
