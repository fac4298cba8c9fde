package sim

// Event storage and the pending-event queue. Events live in a flat slab
// indexed by int32 with an explicit free list; the pending queue is a
// monotone radix heap of entries that carry their (at, seq) key inline
// beside the slab index, so ordering compares keys without touching the
// slab. A push files its entry in one of 64 buckets by the highest bit in
// which its time's key differs from the base key, that of the last entry
// popped; a pop takes bucket 0 or scans the lowest non-empty bucket, and
// an entry moves only to lower buckets, so at most 63 times between its
// push and its firing, whatever the pending count. Nothing here
// allocates in steady state: slab, free list and buckets all reuse their
// backing arrays. See DESIGN.md §10 for the invariants.

import (
	"math"
	"math/bits"
)

// event is one slab slot. A slot is exactly one of: free (on the free
// list), queued (in a bucket), or mid-fire (popped, fn running). gen
// increments every time the slot is released, which is what makes stale
// EventHandles (the ABA problem of slot reuse) harmless.
type event struct {
	fn     func()
	period float64 // seconds; > 0 marks a recurring (Every) event
	gen    uint32
	queued bool // in a bucket
	dead   bool // cancelled; released when reached (or compacted away)
	free   bool // on the free list
}

// entry is one pending event in the queue: its firing key and its slot.
type entry struct {
	at  Time
	seq uint64 // tie-break so equal-time events fire in schedule order
	idx int32
}

// keyOf is the radix key of a firing time: its IEEE-754 bits with the
// sign cleared. checkTime admits no time below the clock, and the clock
// starts at zero and never falls, so every queued time is −0, +0 or
// positive and finite; on those the bits order as the values do, and
// −0 shares the key of +0, which it equals.
//
//amoeba:noalloc
func keyOf(at Time) uint64 {
	return math.Float64bits(float64(at)) &^ (1 << 63)
}

// alloc takes a slot from the free list (or grows the slab) and
// initialises it as a queued event. The slot's generation is preserved:
// it only advances on release.
//
//amoeba:noalloc
func (s *Simulator) alloc(fn func(), period float64) int32 {
	var idx int32
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.slab = append(s.slab, event{}) //amoeba:allowalloc(slab growth is amortised; steady state reuses the free list)
		idx = int32(len(s.slab) - 1)
	}
	ev := &s.slab[idx]
	ev.fn = fn
	ev.period = period
	ev.queued = true
	ev.dead = false
	ev.free = false
	return idx
}

// release returns a slot to the free list and bumps its generation so
// outstanding handles to the old occupant become no-ops. The callback is
// dropped so the slab does not retain dead closures.
//
//amoeba:noalloc
func (s *Simulator) release(idx int32) {
	ev := &s.slab[idx]
	ev.fn = nil
	ev.period = 0
	ev.queued = false
	ev.dead = false
	ev.free = true
	ev.gen++
	s.free = append(s.free, idx) //amoeba:allowalloc(free-list capacity tracks the slab; growth is amortised)
}

// before reports whether a fires before b: earlier time first, schedule
// order (seq) breaking ties.
//
//amoeba:noalloc
func before(a, b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push queues slot idx at time at with the next sequence number.
//
//amoeba:noalloc
func (s *Simulator) push(at Time, idx int32) {
	s.pushSeq(at, s.seq, idx)
	s.seq++
}

// pushSeq queues slot idx under the key (at, seq). at must not precede
// the clock (checkTime), so its key is at least last.
//
//amoeba:noalloc
func (s *Simulator) pushSeq(at Time, seq uint64, idx int32) {
	s.place(entry{at: at, seq: seq, idx: idx})
	s.pending++
}

// place files e in bucket bits.Len64(key ^ last): bucket b > 0 holds the
// entries whose key first differs from last at bit b-1, and bucket 0 the
// entries at exactly last. Keys and last are below 2^63, so b < 64.
//
//amoeba:noalloc
func (s *Simulator) place(e entry) {
	b := bits.Len64(keyOf(e.at) ^ s.last)
	s.buckets[b] = append(s.buckets[b], e) //amoeba:allowalloc(bucket capacity tracks its peak occupancy; growth is amortised)
	s.mask |= 1 << b
	if b == 0 {
		s.settle0()
	}
}

// settle0 moves bucket 0's newest entry back to its place in seq order.
// Bucket 0 is kept in seq order from head0 on, because a stamp (AtStamp)
// can carry an older seq than the entries already there; an entry with
// a newer seq, the usual case, stays where it was appended.
//
//amoeba:noalloc
func (s *Simulator) settle0() {
	z := s.buckets[0]
	i := len(z) - 1
	e := z[i]
	for ; i > s.head0 && z[i-1].seq > e.seq; i-- {
		z[i] = z[i-1]
	}
	z[i] = e
}

// pop removes and returns the first pending entry in (at, seq) order if
// it fires at or before horizon; otherwise it leaves the queue as it is
// and reports false. The caller must have checked the queue is
// non-empty.
//
// Bucket 0's entries sort before every other bucket's. When it is empty,
// pop scans the lowest non-empty bucket for its minimum, and last
// advances to that entry's key only if it is due by horizon. Run then
// moves the clock to it (or, for a cancelled entry, to a later entry or
// the horizon) before any callback or caller can push, so last never
// passes the clock's key there, and a push between the clock and an
// event stopped at the horizon still files at or above last. The rest
// of the bucket agrees with the new last above bit b-1 and so moves to
// lower buckets; a lone entry pops without moving.
//
//amoeba:noalloc
func (s *Simulator) pop(horizon Time) (entry, bool) {
	if s.mask&1 != 0 {
		z := s.buckets[0]
		e := z[s.head0]
		if e.at > horizon {
			return e, false
		}
		if s.head0++; s.head0 == len(z) {
			s.buckets[0] = z[:0]
			s.head0 = 0
			s.mask &^= 1
		}
		s.pending--
		return e, true
	}
	b := bits.TrailingZeros64(s.mask)
	z := s.buckets[b]
	m := 0
	for i := 1; i < len(z); i++ {
		if before(z[i], z[m]) {
			m = i
		}
	}
	e := z[m]
	if e.at > horizon {
		return e, false
	}
	s.last = keyOf(e.at)
	s.buckets[b] = s.buckets[b][:0]
	s.mask &^= 1 << b
	for i := range z {
		if i != m {
			s.place(z[i])
		}
	}
	s.pending--
	return e, true
}

// maybeCompact sweeps cancelled events out of the queue once they exceed
// half of it. Cancel is O(1) (a dead mark); the sweep keeps a
// pathological schedule/cancel workload from growing the queue without
// bound while costing amortised O(1) per cancellation.
//
//amoeba:noalloc
func (s *Simulator) maybeCompact() {
	if s.deadQueued >= 16 && s.deadQueued*2 > s.pending {
		s.compact()
	}
}

// compact filters the dead entries out of every bucket in place,
// releasing their slots. Each bucket keeps its live entries in their
// order, so bucket 0 stays in seq order; pop order is fully determined
// by the (at, seq) total order in any case.
//
//amoeba:noalloc
func (s *Simulator) compact() {
	for m := s.mask; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		z := s.buckets[b]
		if b == 0 {
			z = z[s.head0:]
		}
		live := s.buckets[b][:0]
		for _, e := range z {
			if s.slab[e.idx].dead {
				s.release(e.idx)
			} else {
				live = append(live, e) //amoeba:allowalloc(filters a bucket in place; its live entries never exceed its capacity)
			}
		}
		s.buckets[b] = live
		if len(live) == 0 {
			s.mask &^= 1 << b
		}
	}
	s.head0 = 0
	s.pending -= s.deadQueued
	s.deadQueued = 0
}
