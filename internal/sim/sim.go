// Package sim provides a deterministic discrete-event simulation kernel.
//
// All platform models in this repository (the serverless container pool,
// the IaaS VM groups, arrival processes, the contention monitor's sampling
// daemon, ...) are expressed as events on a single virtual clock. The
// kernel is single-threaded and deterministic: given the same seed and the
// same event schedule it produces bit-identical results, which is what
// makes the paper's experiments reproducible as tests and benchmarks.
// The model stays single-threaded: parallelism in this repository
// happens *across* simulations (parameter sweeps fan out one simulation
// per goroutine). Within one, two kinds of goroutine touch no model
// state: the JSONL telemetry sink encodes copies of the events on a
// goroutine of its own, and each Stream draws a component's private
// variates ahead of it on a helper goroutine (stream.go), which the
// component consumes in the order they were drawn.
//
// The kernel is allocation-free in steady state: events live in a
// generation-counted slab, and the pending queue files each event once,
// by its time, in a ring of 1/1024 s slots spanning the next 2 s, or,
// past that window, in a radix heap of slot numbers that feeds the ring
// as the window slides (eventheap.go). Both tiers thread their lists
// through the slab. Recurring tickers reuse their slot across ticks, and
// cancellation is an O(1) dead mark with a lazy compaction sweep. The
// performance contracts are documented in DESIGN.md §10 and pinned by
// BENCH_sim.json.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in seconds since simulation start.
type Time float64

func (t Time) String() string {
	return fmt.Sprintf("%.3fs", float64(t))
}

// EventHandle allows a scheduled event to be cancelled before it fires.
// The zero value is valid and cancels nothing. A handle is made ABA-safe
// by the slot's generation counter: once its event has fired (or been
// cancelled) and the slot is reused, the stale handle no-ops.
type EventHandle struct {
	s   *Simulator
	idx int32
	gen uint32
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op. Cancellation is O(1): the event is
// marked dead in place and skipped (or swept out in bulk) later.
//
//amoeba:noalloc
func (h EventHandle) Cancel() {
	s := h.s
	if s == nil {
		return
	}
	ev := &s.slab[h.idx]
	if ev.gen != h.gen || ev.free || ev.dead {
		return
	}
	ev.dead = true
	s.cancelled++
	if ev.queued {
		s.deadQueued++
		s.maybeCompact()
	}
}

// Stamp is a sequence number taken by Reserve: the tie-break an event
// scheduled at that moment would have had. The zero Stamp was reserved by
// nothing.
type Stamp struct {
	n uint64 // reserved sequence number + 1
}

// Simulator owns the virtual clock and the pending-event queue.
type Simulator struct {
	now  Time
	slab []event // all event slots; indexed by the queue and the free list
	free []int32 // released slots available for reuse
	seq  uint64
	cur  entry // the event now firing, or the last one fired
	rng  *RNG

	// The pending events, in two tiers by time (eventheap.go). The near
	// tier is a ring of time slots from the cursor; each occupied slot
	// lists its entries through the slab's next links.
	heads   [ringSlots]int32  // first entry of each occupied ring slot
	occ     [ringWords]uint64 // bit p&63 of occ[p>>6]: ring slot p is occupied
	summary uint64            // bit w: occ[w] is non-zero
	cursor  uint64            // the window's start, the last popped entry's slot or farNext; at most the clock's slot whenever a push can come
	low     uint64            // the first occupied ring slot while the ring is non-empty
	far     farTier           // entries at or past the window's end, slot cursor+ringSlots
	farNext uint64            // at most the far tier's first slot; noSlot when it is empty
	pending int               // queued entries, cancelled ones included

	fired      uint64
	cancelled  uint64
	deadQueued int // cancelled events still occupying queue entries
	halted     bool
	horizon    Time // the horizon of the current (or last) Run call
}

// New returns a simulator with its clock at zero, seeded with seed.
func New(seed uint64) *Simulator {
	return &Simulator{rng: NewRNG(seed), farNext: noSlot}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// RNG returns the simulator's root random source. Components should call
// Split to derive private streams so that adding a component does not
// perturb the draws seen by the others.
func (s *Simulator) RNG() *RNG { return s.rng }

// Events returns the number of events fired so far.
func (s *Simulator) Events() uint64 { return s.fired }

// Cancelled returns the number of events cancelled so far (effective
// cancels only; no-op cancels of fired or already-dead events don't
// count).
func (s *Simulator) Cancelled() uint64 { return s.cancelled }

// checkTime panics if at precedes the clock or is not finite — both
// always indicate a model bug.
//
//amoeba:noalloc
func (s *Simulator) checkTime(at Time) {
	if at < s.now {
		//amoeba:allowalloc(cold panic path: message boxing fires only on a broken model invariant)
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", at, s.now))
	}
	if math.IsNaN(float64(at)) || math.IsInf(float64(at), 0) {
		//amoeba:allowalloc(cold panic path: message boxing fires only on a broken model invariant)
		panic(fmt.Sprintf("sim: scheduling at non-finite time %v", float64(at)))
	}
}

// schedule validates the firing time and enqueues one event with the
// next sequence number. period > 0 marks it recurring. It panics if at
// precedes the clock or is not finite.
//
//amoeba:noalloc
func (s *Simulator) schedule(at Time, fn func(), period float64) EventHandle {
	s.checkTime(at)
	idx := s.alloc(fn, period)
	s.push(at, idx)
	return EventHandle{s: s, idx: idx, gen: s.slab[idx].gen}
}

// At schedules fn to run at absolute virtual time at. Scheduling in the
// past panics: it always indicates a model bug.
//
//amoeba:noalloc
func (s *Simulator) At(at Time, fn func()) EventHandle {
	return s.schedule(at, fn, 0)
}

// After schedules fn to run delay seconds from now. It panics if the
// delay is negative.
//
//amoeba:noalloc
func (s *Simulator) After(delay float64, fn func()) EventHandle {
	if delay < 0 {
		//amoeba:allowalloc(cold panic path: message boxing fires only on a broken model invariant)
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return s.schedule(s.now+Time(delay), fn, 0)
}

// Reserve takes the next sequence number without scheduling anything.
// An event later queued with AtStamp under the stamp fires exactly where
// an At call made now would have: after every event scheduled before
// Reserve and before every event scheduled after it, at equal times.
//
//amoeba:noalloc
func (s *Simulator) Reserve() Stamp {
	s.seq++
	return Stamp{n: s.seq}
}

// AtStamp schedules fn at absolute time at under a stamp taken by
// Reserve, consuming no sequence number. A stamp serves at most one
// pending event. It panics if at precedes the clock or is not finite, if
// st was not returned by Reserve, or if (at, st) sorts before the event
// now firing, which has already passed it.
//
//amoeba:noalloc
func (s *Simulator) AtStamp(at Time, st Stamp, fn func()) EventHandle {
	s.checkTime(at)
	if st.n == 0 || st.n > s.seq {
		//amoeba:allowalloc(cold panic path: message boxing fires only on a broken model invariant)
		panic("sim: AtStamp with a stamp Reserve did not return")
	}
	seq := st.n - 1
	if at == s.cur.at && seq < s.cur.seq {
		//amoeba:allowalloc(cold panic path: message boxing fires only on a broken model invariant)
		panic(fmt.Sprintf("sim: stamped event at %v sorts before the event now firing", at))
	}
	idx := s.alloc(fn, 0)
	s.pushSeq(at, seq, idx)
	return EventHandle{s: s, idx: idx, gen: s.slab[idx].gen}
}

// Horizon returns the horizon of the current Run call, or of the last
// one between calls (zero before the first). An event scheduled past it
// does not fire during the call. Components that look ahead on private
// state stop there, so they never decide anything about a time the run
// will not reach.
func (s *Simulator) Horizon() Time { return s.horizon }

// Halt stops the run loop after the current event returns.
func (s *Simulator) Halt() { s.halted = true }

// Run fires events in time order until the queue is empty or the clock
// would pass horizon. It returns the number of events fired during the
// call. The clock is left at min(horizon, time of last event); events
// scheduled beyond the horizon remain queued. It panics if a recurring
// event's next firing time overflows to a non-finite value.
//
//amoeba:noalloc
func (s *Simulator) Run(horizon Time) uint64 {
	var fired uint64
	s.halted = false
	s.horizon = horizon
	for s.pending > 0 && !s.halted {
		top, ok := s.pop(horizon)
		if !ok {
			break
		}
		ev := &s.slab[top.idx]
		ev.queued = false
		if ev.dead {
			s.deadQueued--
			s.release(top.idx)
			continue
		}
		s.now = top.at
		s.cur = top
		fn := ev.fn
		fn()
		fired++
		s.fired++
		// fn may have scheduled events and grown the slab: re-resolve the
		// slot before touching it again.
		ev = &s.slab[top.idx]
		if ev.period > 0 && !ev.dead {
			// Recurring ticker: reuse the slot, fresh (at, seq). The seq is
			// assigned after fn ran, so events fn scheduled fire before the
			// next tick at equal times — exactly the order the old
			// closure-based ticker produced.
			at := s.now + Time(ev.period)
			if math.IsNaN(float64(at)) || math.IsInf(float64(at), 0) {
				//amoeba:allowalloc(cold panic path: message boxing fires only on a broken model invariant)
				panic(fmt.Sprintf("sim: scheduling at non-finite time %v", float64(at)))
			}
			ev.queued = true
			s.push(at, top.idx)
		} else {
			s.release(top.idx)
		}
	}
	if s.now < horizon && !s.halted {
		s.now = horizon
	}
	return fired
}

// Every schedules fn at the given period, starting one period from now,
// until the returned stop function is called. fn observes the simulator's
// clock. The ticker owns a single event slot for its whole lifetime: each
// firing re-queues the same slot with a fresh (at, seq), so a tick costs
// no allocation. It panics if the period is not positive.
func (s *Simulator) Every(period float64, fn func()) (stop func()) {
	if period <= 0 {
		panic("sim: Every with non-positive period")
	}
	h := s.schedule(s.now+Time(period), fn, period)
	return h.Cancel
}
