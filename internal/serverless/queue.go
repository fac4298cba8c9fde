package serverless

// The activation queue (DESIGN.md §17). Waiting activations live in one
// FIFO ring per function, stamped with a platform-wide arrival sequence
// number at Invoke; pump serves them in global arrival order by merging
// the per-function heads. A function whose head fails to place is blocked
// for the rest of the pump: within one pump it cannot become placeable,
// so the activations behind it need not be tried. A pump therefore costs
// O(placements + waiting functions) place attempts, however deep the
// backlog is, and places exactly what a full scan of one shared FIFO
// would, in the same order.

// actRing is a growable FIFO ring buffer of activations. Its capacity is
// a power of two so the wrap is a mask; it doubles when full and never
// shrinks, so a queue allocates only when its backlog reaches a new
// high-water mark.
type actRing struct {
	buf  []*activation
	head int
	n    int
}

func (r *actRing) push(act *activation) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = act
	r.n++
}

// front returns the oldest activation; the ring must be non-empty.
func (r *actRing) front() *activation { return r.buf[r.head] }

// pop drops the oldest activation; the ring must be non-empty.
func (r *actRing) pop() {
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
}

func (r *actRing) grow() {
	size := 2 * len(r.buf)
	if size == 0 {
		size = 8
	}
	buf := make([]*activation, size)
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}

// enqueue appends the activation to its function's queue, listing the
// function among the waiting ones (kept in registration order) if its
// queue was empty.
func (p *Platform) enqueue(act *activation) {
	f := act.fn
	if !f.waiting {
		f.waiting = true
		i := len(p.waiting)
		p.waiting = append(p.waiting, f)
		for ; i > 0 && p.waiting[i-1].order > f.order; i-- {
			p.waiting[i] = p.waiting[i-1]
		}
		p.waiting[i] = f
	}
	f.queue.push(act)
	p.queued++
}

// pump places waiting activations in global arrival order, as long as
// they can be placed right now: it repeatedly tries the lowest-sequence
// head among the waiting functions not yet blocked in this pump. The
// first failed place blocks its function until the pump returns; the
// generation stamp makes that mark expire without a reset pass.
func (p *Platform) pump() {
	if p.queued == 0 {
		return
	}
	p.pumpGen++
	gen := p.pumpGen
	attempts, placed, waiting := 0, 0, len(p.waiting)
	for {
		var next *function
		var nextSeq uint64
		for _, f := range p.waiting {
			if f.blockedGen == gen || f.queue.n == 0 {
				continue
			}
			if seq := f.queue.front().seq; next == nil || seq < nextSeq {
				next, nextSeq = f, seq
			}
		}
		if next == nil {
			break
		}
		attempts++
		if !p.place(next.queue.front()) {
			next.blockedGen = gen
			continue
		}
		next.queue.pop()
		p.queued--
		placed++
	}
	live := p.waiting[:0]
	for _, f := range p.waiting {
		if f.queue.n > 0 {
			live = append(live, f)
		} else {
			f.waiting = false
		}
	}
	clear(p.waiting[len(live):])
	p.waiting = live
	if p.pumpProbe != nil {
		p.pumpProbe(attempts, placed, waiting)
	}
}
