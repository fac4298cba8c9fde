package serverless

// The activation queue (DESIGN.md §17). Waiting activations live in one
// FIFO ring (fifo.Ring) per function, stamped with a platform-wide
// arrival sequence number at Invoke; pump serves them in global arrival
// order by merging the per-function heads. A function whose head fails
// to place is blocked for the rest of the pump: within one pump it
// cannot become placeable, so the activations behind it need not be
// tried. A pump therefore costs O(placements + waiting functions) place
// attempts, however deep the backlog is, and places exactly what a full
// scan of one shared FIFO would, in the same order.

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
	f.queue.Push(act)
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
			if f.blockedGen == gen || f.queue.Len() == 0 {
				continue
			}
			if seq := f.queue.Front().seq; next == nil || seq < nextSeq {
				next, nextSeq = f, seq
			}
		}
		if next == nil {
			break
		}
		attempts++
		if !p.place(next.queue.Front()) {
			next.blockedGen = gen
			continue
		}
		next.queue.Pop()
		p.queued--
		placed++
	}
	live := p.waiting[:0]
	for _, f := range p.waiting {
		if f.queue.Len() > 0 {
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
