package sim

// Event storage and the pending-event queue. Events live in a flat slab
// indexed by int32 with an explicit free list. The pending queue has two
// tiers, and every entry sits in exactly one, chosen by its time's slot,
// the count of whole 1/slotRate s widths in it:
//
//   - The near tier is a ring of ringSlots slots, the window from the
//     cursor. A push links its entry at the head of its slot's list,
//     threaded through the slab. The first occupied slot is kept in low:
//     a pop scans that slot's list, about one entry long, for its
//     (at, seq) minimum, and a pop that empties the slot finds the next
//     occupied one with two bit scans of a two-level occupancy bitmap.
//   - The far tier holds the entries at or past the window's end in a
//     radix heap of slot numbers, its buckets threaded through the slab
//     too. As the cursor advances, the entries the window reaches move
//     into the ring, a bucket at a time, in no particular order: the
//     ring orders them.
//
// Nothing here allocates: the slab and the free list reuse their backing
// arrays, and the tiers are fixed arrays of list heads. See DESIGN.md
// §10 for the invariants.

import (
	"math"
	"math/bits"
)

// The near tier's geometry. A slot is 1/slotRate s wide, and the ring
// spans ringSlots of them: a 2 s window of 1/1024 s slots, fitted to
// the traffic measured in DESIGN.md §10.
const (
	slotRate  = 1024
	ringSlots = 2048
	ringMask  = ringSlots - 1
	ringWords = ringSlots / 64
	// slotClamp is the slot of every time at or past 2^62 slots,
	// 2^52 s; it leaves room to add ringSlots without overflow.
	slotClamp = 1 << 62
	// noSlot marks an empty far tier: no cursor reaches it.
	noSlot = math.MaxUint64
)

// event is one slab slot. A slot is exactly one of: free (on the free
// list), queued (in the ring or the far tier), or mid-fire (popped, fn
// running). gen increments every time the slot is released, which is
// what makes stale EventHandles (the ABA problem of slot reuse)
// harmless.
type event struct {
	fn     func()
	period float64 // seconds; > 0 marks a recurring (Every) event
	at     Time    // firing time while queued
	seq    uint64  // tie-break so equal-time events fire in schedule order
	next   int32   // the next entry of the same ring slot or far bucket; -1 ends the list
	gen    uint32
	queued bool // in the ring or the far tier
	dead   bool // cancelled; released when reached (or compacted away)
	free   bool // on the free list
}

// entry is a popped event: its firing key and its slab index.
type entry struct {
	at  Time
	seq uint64
	idx int32
}

// slotOf is the slot of a firing time: its count of whole slot widths,
// clamped at slotClamp. at·slotRate is exact (a power-of-two scaling),
// and truncation is monotone, so a time never lands in an earlier slot
// than a time before it. −0 and subnormals land in slot 0.
//
//amoeba:noalloc
func slotOf(at Time) uint64 {
	if f := float64(at) * slotRate; f < slotClamp {
		return uint64(int64(f)) // f < 2^62: one signed conversion
	}
	return slotClamp
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

// push queues slot idx at time at with the next sequence number.
//
//amoeba:noalloc
func (s *Simulator) push(at Time, idx int32) {
	s.pushSeq(at, s.seq, idx)
	s.seq++
}

// pushSeq queues slot idx under the key (at, seq). at must not precede
// the clock (checkTime), so its slot is at least the cursor.
//
//amoeba:noalloc
func (s *Simulator) pushSeq(at Time, seq uint64, idx int32) {
	s.file(at, seq, idx)
	s.pending++
}

// file records entry idx's key (at, seq) and links it into its tier: at
// the head of its ring slot's list if the slot is inside the window
// [cursor, cursor+ringSlots), in the far tier otherwise. The caller
// guarantees the slot is at least the cursor.
//
//amoeba:noalloc
func (s *Simulator) file(at Time, seq uint64, idx int32) {
	ev := &s.slab[idx]
	ev.at = at
	ev.seq = seq
	sl := slotOf(at)
	if sl-s.cursor >= ringSlots {
		if s.far.mask == 0 {
			// Re-base an empty far tier on the window's end, the first
			// slot a far entry can have.
			s.far.base = s.cursor + ringSlots
		}
		s.far.put(s.slab, idx, sl)
		if sl < s.farNext {
			s.farNext = sl
		}
		return
	}
	p := sl & ringMask
	w, bit := p>>6, uint64(1)<<(p&63)
	if s.occ[w]&bit == 0 {
		if s.summary == 0 || sl < s.low {
			s.low = sl
		}
		s.occ[w] |= bit
		s.summary |= 1 << w
		ev.next = -1
	} else {
		ev.next = s.heads[p]
	}
	s.heads[p] = idx
}

// nextSlot returns the ring position of the first occupied slot at or
// after position c, that of the cursor or of low, in ring order: the
// rest of c's word, then the later words through the summary, then from
// the ring's start. Every ring entry's slot lies in
// [cursor, cursor+ringSlots), so ring order from the cursor's position
// is slot order. The ring must be non-empty.
//
//amoeba:noalloc
func (s *Simulator) nextSlot(c uint64) uint64 {
	w := c >> 6
	if m := s.occ[w] >> (c & 63); m != 0 {
		return c + uint64(bits.TrailingZeros64(m))
	}
	m := s.summary &^ (2<<w - 1)
	if m == 0 {
		m = s.summary // wrap: the first occupied word may be c's own
	}
	w = uint64(bits.TrailingZeros64(m)) & (ringWords - 1)
	return w<<6 | uint64(bits.TrailingZeros64(s.occ[w]))
}

// pop removes and returns the first pending entry in (at, seq) order if
// it fires at or before horizon; otherwise it leaves the entries as they
// are and reports false. The caller must have checked the queue is
// non-empty.
//
// Every ring entry sorts before every far one, so the first entry is in
// the ring's first occupied slot; with the ring empty, the window first
// moves to the far tier's first slot, but only up to the horizon's slot.
// A pop from the ring moves the cursor to the popped entry's slot only
// if the entry is due by horizon. Run then moves the clock to it (or,
// for a cancelled entry, to a later entry or the horizon), and after a
// refused pop to the horizon, before any callback or caller can push. So
// the cursor never passes the clock's slot there, and a push between
// the clock and an event stopped at the horizon still files at or after
// the cursor.
//
//amoeba:noalloc
func (s *Simulator) pop(horizon Time) (entry, bool) {
	for s.summary == 0 {
		if horizon < 0 || s.farNext > slotOf(horizon) {
			return entry{}, false // every far entry lies past the horizon
		}
		s.cursor = s.farNext
		s.migrate()
	}
	// The first entry is in low's slot, whose list holds about one entry:
	// scan the rest for its (at, seq) minimum.
	p := s.low & ringMask
	m := s.heads[p]
	ev := &s.slab[m]
	e, prev := entry{at: ev.at, seq: ev.seq, idx: m}, int32(-1)
	for i, j := m, ev.next; j >= 0; i, j = j, s.slab[j].next {
		if x := &s.slab[j]; x.at < e.at || x.at == e.at && x.seq < e.seq {
			e, prev = entry{at: x.at, seq: x.seq, idx: j}, i
		}
	}
	if e.at > horizon {
		return e, false
	}
	s.cursor = s.low
	switch next := s.slab[e.idx].next; {
	case prev >= 0:
		s.slab[prev].next = next
	case next >= 0:
		s.heads[p] = next
	default: // the slot is empty now: low moves to the next occupied one
		w := p >> 6
		if s.occ[w] &^= 1 << (p & 63); s.occ[w] == 0 {
			s.summary &^= 1 << w
		}
		if s.summary != 0 {
			s.low += (s.nextSlot(p) - p) & ringMask
		}
	}
	if s.cursor+ringSlots > s.farNext {
		s.migrate()
	}
	s.pending--
	return e, true
}

// migrate moves every far entry whose slot the window now reaches, below
// cursor+ringSlots, into the ring, and leaves in farNext the lowest slot
// the far tier's first bucket can hold. It takes the first bucket while
// that slot is inside the window; when the bucket also reaches past the
// window, the tier re-bases on the window's end, and the bucket's later
// entries move to lower buckets.
//
//amoeba:noalloc
func (s *Simulator) migrate() {
	f := &s.far
	end := s.cursor + ringSlots
	for f.mask != 0 {
		b := bits.TrailingZeros64(f.mask)
		lo, hi := f.bounds(b)
		if lo >= end {
			s.farNext = lo
			return
		}
		if end <= hi {
			f.base = end
		}
		i := f.heads[b]
		f.mask &^= 1 << b
		for i >= 0 {
			ev := &s.slab[i]
			next := ev.next
			if sl := slotOf(ev.at); sl < end {
				s.file(ev.at, ev.seq, i)
			} else {
				f.put(s.slab, i, sl)
			}
			i = next
		}
	}
	s.farNext = noSlot
}

// farTier is a radix heap (Ahuja, Mehlhorn, Orlin & Tarjan, 1990) of
// slot numbers whose buckets are lists threaded through the slab. Bucket
// b > 0 lists the entries whose slot first differs from base at bit
// b-1, and bucket 0 those at base, so every slot in a lower bucket is
// below every slot in a higher one. base is at most every far slot; it
// moves only to the window's end, the first slot a later far push can
// have, and only within the first bucket's range, which keeps the
// higher buckets' entries where they are.
type farTier struct {
	heads [64]int32 // first entry of each non-empty bucket
	mask  uint64    // bit b: bucket b is non-empty
	base  uint64
}

// put links entry idx, of slot sl, at the head of bucket
// bits.Len64(sl^base). Slots and base are below 2^63, so the bucket is
// below 64.
//
//amoeba:noalloc
func (f *farTier) put(slab []event, idx int32, sl uint64) {
	b := bits.Len64(sl ^ f.base)
	if f.mask&(1<<b) == 0 {
		f.mask |= 1 << b
		slab[idx].next = -1
	} else {
		slab[idx].next = f.heads[b]
	}
	f.heads[b] = idx
}

// bounds returns the lowest and highest slot bucket b can hold: base's
// bits above b-1, then bit b-1 set, then anything.
//
//amoeba:noalloc
func (f *farTier) bounds(b int) (lo, hi uint64) {
	if b == 0 {
		return f.base, f.base
	}
	lo = f.base&^(1<<b-1) | 1<<(b-1)
	return lo, lo | (1<<(b-1) - 1)
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

// compact unlinks the dead entries from every occupied ring slot and far
// bucket, releasing their slots. Pop order is fully determined by the
// (at, seq) total order, not by where entries sit in a list.
//
//amoeba:noalloc
func (s *Simulator) compact() {
	for sm := s.summary; sm != 0; sm &= sm - 1 {
		w := uint64(bits.TrailingZeros64(sm))
		for m := s.occ[w]; m != 0; m &= m - 1 {
			p := w<<6 | uint64(bits.TrailingZeros64(m))
			if s.sweep(&s.heads[p]) {
				s.occ[w] &^= 1 << (p & 63)
			}
		}
		if s.occ[w] == 0 {
			s.summary &^= 1 << w
		}
	}
	if s.summary != 0 { // the sweep may have emptied low's slot
		c := s.low & ringMask
		s.low += (s.nextSlot(c) - c) & ringMask
	}
	// farNext stays a lower bound on the far slots that remain.
	f := &s.far
	for m := f.mask; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		if s.sweep(&f.heads[b]) {
			f.mask &^= 1 << b
		}
	}
	s.pending -= s.deadQueued
	s.deadQueued = 0
}

// sweep unlinks the dead entries from the list at *head, releasing their
// slots, and reports whether the list is now empty.
//
//amoeba:noalloc
func (s *Simulator) sweep(head *int32) bool {
	prev := int32(-1)
	for i := *head; i >= 0; {
		ev := &s.slab[i]
		next := ev.next
		switch {
		case !ev.dead:
			prev = i
		case prev >= 0:
			s.slab[prev].next = next
			s.release(i)
		default:
			*head = next
			s.release(i)
		}
		i = next
	}
	return prev < 0
}
