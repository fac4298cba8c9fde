package sim

// Event storage and priority queue. Events live in a flat slab indexed by
// int32 with an explicit free list; the pending queue is an intrusive
// 4-ary min-heap of entries that carry their (at, seq) key inline beside
// the slab index, so sifting compares keys without touching the slab.
// Nothing here allocates in steady state: slab, free list and heap all
// reuse their backing arrays, so the per-event cost is a few cache lines
// of sifting instead of an allocation plus interface-dispatched
// container/heap calls. See DESIGN.md §10 for the invariants.

// event is one slab slot. A slot is exactly one of: free (on the free
// list), queued (in the heap), or mid-fire (popped, fn running). gen
// increments every time the slot is released, which is what makes stale
// EventHandles (the ABA problem of slot reuse) harmless.
type event struct {
	fn     func()
	period float64 // seconds; > 0 marks a recurring (Every) event
	gen    uint32
	queued bool // in the heap
	dead   bool // cancelled; released when reached (or compacted away)
	free   bool // on the free list
}

// entry is one pending event in the heap: its firing key and its slot.
type entry struct {
	at  Time
	seq uint64 // tie-break so equal-time events fire in schedule order
	idx int32
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

// pushSeq queues slot idx under the key (at, seq).
//
//amoeba:noalloc
func (s *Simulator) pushSeq(at Time, seq uint64, idx int32) {
	s.heap = append(s.heap, entry{at: at, seq: seq, idx: idx}) //amoeba:allowalloc(heap capacity tracks peak pending events; growth is amortised)
	s.siftUp(len(s.heap) - 1)
}

// popMin removes the heap root. The caller must have checked the heap is
// non-empty.
//
//amoeba:noalloc
func (s *Simulator) popMin() {
	h := s.heap
	n := len(h) - 1
	h[0] = h[n]
	s.heap = h[:n]
	if n > 0 {
		s.siftDown(0)
	}
}

// siftUp restores the heap property upward from position i, moving the
// hole rather than swapping (one write per level).
//
//amoeba:noalloc
func (s *Simulator) siftUp(i int) {
	h := s.heap
	e := h[i]
	for i > 0 {
		parent := (i - 1) >> 2
		if !before(e, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

// siftDown restores the heap property downward from position i. The
// 4-ary layout halves the tree depth of a binary heap.
//
//amoeba:noalloc
func (s *Simulator) siftDown(i int) {
	h := s.heap
	n := len(h)
	e := h[i]
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if before(h[c], h[best]) {
				best = c
			}
		}
		if !before(h[best], e) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = e
}

// maybeCompact sweeps cancelled events out of the heap once they exceed
// half of it. Cancel is O(1) (a dead mark); the sweep keeps a
// pathological schedule/cancel workload from growing the queue without
// bound while costing amortised O(1) per cancellation.
//
//amoeba:noalloc
func (s *Simulator) maybeCompact() {
	if s.deadQueued >= 16 && s.deadQueued*2 > len(s.heap) {
		s.compact()
	}
}

// compact rebuilds the heap without its dead entries, releasing their
// slots. Pop order is unaffected: it is fully determined by the (at, seq)
// total order, not by the heap's internal layout.
//
//amoeba:noalloc
func (s *Simulator) compact() {
	live := s.heap[:0]
	for _, e := range s.heap {
		if s.slab[e.idx].dead {
			s.release(e.idx)
		} else {
			live = append(live, e) //amoeba:allowalloc(appends into heap[:0]; live set never exceeds existing capacity)
		}
	}
	s.heap = live
	for i := (len(live) - 2) >> 2; i >= 0; i-- {
		s.siftDown(i)
	}
	s.deadQueued = 0
}
