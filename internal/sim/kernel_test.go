package sim

import (
	"math"
	"testing"
)

// --- Cancellation accounting ---

func TestCancelledCounter(t *testing.T) {
	s := New(1)
	h1 := s.At(1, func() {})
	h2 := s.At(2, func() {})
	s.At(3, func() {})

	h1.Cancel()
	if s.Cancelled() != 1 {
		t.Fatalf("Cancelled() = %d after one cancel, want 1", s.Cancelled())
	}
	h1.Cancel() // double-cancel is a no-op
	if s.Cancelled() != 1 {
		t.Fatalf("Cancelled() = %d after double cancel, want 1", s.Cancelled())
	}
	s.Run(10)
	h2.Cancel() // already fired: no-op
	if s.Cancelled() != 1 {
		t.Fatalf("Cancelled() = %d after cancelling a fired event, want 1", s.Cancelled())
	}
	if s.Events() != 2 {
		t.Fatalf("Events() = %d, want 2 (one of three was cancelled)", s.Events())
	}

	var zero EventHandle
	zero.Cancel() // zero handle cancels nothing
	if s.Cancelled() != 1 {
		t.Fatalf("Cancelled() = %d after zero-handle cancel, want 1", s.Cancelled())
	}
}

// TestStaleHandleAfterSlotReuse pins the ABA safety: a handle whose slot
// has been released and reallocated to a new event must not cancel the
// new occupant.
func TestStaleHandleAfterSlotReuse(t *testing.T) {
	s := New(1)
	stale := s.At(1, func() {})
	s.Run(2) // fires; the slot goes back on the free list

	fired := false
	s.At(3, func() { fired = true }) // reuses the slot
	stale.Cancel()                   // must be a no-op: generation advanced
	s.Run(4)
	if !fired {
		t.Fatal("stale handle cancelled the slot's new occupant")
	}
	if s.Cancelled() != 0 {
		t.Fatalf("Cancelled() = %d, want 0 (stale cancel must not count)", s.Cancelled())
	}
}

// TestPendingBoundedUnderCancelChurn drives a pathological
// schedule-then-cancel loop and checks the lazy compaction sweep keeps
// both the queue and the slab bounded. Without the sweep, every
// cancelled event would sit in the queue until its firing time.
func TestPendingBoundedUnderCancelChurn(t *testing.T) {
	s := New(1)
	fn := func() {}

	// A few live events pin the queue to prove the sweep keeps them.
	for i := 0; i < 4; i++ {
		s.At(Time(1e6+float64(i)), fn)
	}

	const churn = 100000
	maxPending := 0
	for i := 0; i < churn; i++ {
		h := s.At(Time(100+float64(i%977)), fn)
		h.Cancel()
		if p := s.pending; p > maxPending {
			maxPending = p
		}
	}
	// The sweep triggers once dead events reach 16 and outnumber the
	// live half; with 4 live events the queue can never grow past ~2x
	// the threshold.
	if maxPending > 64 {
		t.Errorf("pending events peaked at %d under cancel churn, want bounded (<= 64)", maxPending)
	}
	if len(s.slab) > 128 {
		t.Errorf("slab grew to %d slots under cancel churn, want bounded reuse", len(s.slab))
	}
	if s.Cancelled() != churn {
		t.Errorf("Cancelled() = %d, want %d", s.Cancelled(), churn)
	}
	// The live events survived every sweep.
	if got := s.Run(2e6); got != 4 {
		t.Errorf("fired %d events after churn, want the 4 live ones", got)
	}
}

// --- Differential test against a reference kernel ---

// kernelAPI is the surface both implementations expose to the random
// script: scheduling, reserve-then-schedule, cancellation, tickers,
// halting, and running.
type kernelAPI interface {
	KNow() float64
	KAt(at float64, fn func()) (cancel func())
	KReserve() Stamp
	KAtStamp(at float64, st Stamp, fn func()) (cancel func())
	KEvery(period float64, fn func()) (stop func())
	KRun(horizon float64)
	KHalt()
}

// simKernel adapts the real Simulator.
type simKernel struct{ s *Simulator }

func (k simKernel) KNow() float64 { return float64(k.s.Now()) }
func (k simKernel) KAt(at float64, fn func()) func() {
	h := k.s.At(Time(at), fn)
	return h.Cancel
}
func (k simKernel) KReserve() Stamp { return k.s.Reserve() }
func (k simKernel) KAtStamp(at float64, st Stamp, fn func()) func() {
	h := k.s.AtStamp(Time(at), st, fn)
	return h.Cancel
}
func (k simKernel) KEvery(period float64, fn func()) func() { return k.s.Every(period, fn) }
func (k simKernel) KRun(horizon float64)                    { k.s.Run(Time(horizon)) }
func (k simKernel) KHalt()                                  { k.s.Halt() }

// refEvent and refKernel are a deliberately naive reimplementation of
// the kernel's documented semantics: an unsorted slice scanned for the
// (at, seq) minimum. O(n²) and allocation-happy, but obviously correct —
// the slab kernel and its queue must match its visible behaviour exactly.
type refEvent struct {
	at     float64
	seq    uint64
	fn     func()
	period float64
	dead   bool
}

type refKernel struct {
	now    float64
	seq    uint64
	halted bool
	queue  []*refEvent
}

func (k *refKernel) KNow() float64 { return k.now }

func (k *refKernel) KAt(at float64, fn func()) func() {
	ev := &refEvent{at: at, seq: k.seq, fn: fn}
	k.seq++
	k.queue = append(k.queue, ev)
	return func() { ev.dead = true }
}

// KReserve hands out the next sequence number; the reference stamp
// holds it directly.
func (k *refKernel) KReserve() Stamp {
	st := Stamp{n: k.seq}
	k.seq++
	return st
}

func (k *refKernel) KAtStamp(at float64, st Stamp, fn func()) func() {
	ev := &refEvent{at: at, seq: st.n, fn: fn}
	k.queue = append(k.queue, ev)
	return func() { ev.dead = true }
}

func (k *refKernel) KEvery(period float64, fn func()) func() {
	ev := &refEvent{at: k.now + period, seq: k.seq, fn: fn, period: period}
	k.seq++
	k.queue = append(k.queue, ev)
	return func() { ev.dead = true }
}

func (k *refKernel) KHalt() { k.halted = true }

func (k *refKernel) KRun(horizon float64) {
	k.halted = false
	for !k.halted {
		best := -1
		for i, ev := range k.queue {
			if ev.dead {
				continue
			}
			if best == -1 || ev.at < k.queue[best].at ||
				(ev.at == k.queue[best].at && ev.seq < k.queue[best].seq) {
				best = i
			}
		}
		if best == -1 {
			break
		}
		ev := k.queue[best]
		if ev.at > horizon {
			break
		}
		k.queue = append(k.queue[:best], k.queue[best+1:]...)
		k.now = ev.at
		ev.fn()
		if ev.period > 0 && !ev.dead {
			// Reschedule with a seq drawn after fn ran, like the real
			// kernel's ticker re-queue.
			ev.at = k.now + ev.period
			ev.seq = k.seq
			k.seq++
			k.queue = append(k.queue, ev)
		}
	}
	if k.now < horizon && !k.halted {
		k.now = horizon
	}
}

type logEntry struct {
	id int
	at float64
}

// driveKernel runs one seeded random script against a kernel and returns
// the observable trajectory: every firing (id, time) plus the clock after
// each Run. The script exercises same-time FIFO bursts, mid-flight
// cancellation (including of already-fired handles, which must no-op),
// reserve-then-schedule (immediately at the current time, or from a later
// event), equal-time bursts whose stamps arrive out of seq order,
// self-stopping Every tickers, Halt, horizon clamping with resume,
// scheduling from outside a run between the clock and the next pending
// event, and times from −0 and subnormals up to ~1e308. For the ring of
// time slots it adds bursts one ulp either side of slot boundaries and
// of the window's end, far events that migrate into the ring, a horizon
// stop inside a slot followed by events in the clock's own slot, and
// times at and above the slot clamp.
func driveKernel(k kernelAPI, seed uint64) []logEntry {
	rng := NewRNG(seed)
	var log []logEntry
	var cancels []func()
	var stamps []Stamp // reserved, not yet scheduled
	nextID := 1000
	fired := 0

	// leaf returns a callback that only logs, so bursts of them keep the
	// script's event count bounded.
	leaf := func() func() {
		id := nextID
		nextID++
		return func() { log = append(log, logEntry{id, k.KNow()}) }
	}
	var body func(id int) func()
	body = func(id int) func() {
		return func() {
			log = append(log, logEntry{id, k.KNow()})
			fired++
			switch rng.Intn(14) {
			case 0, 1, 2: // spawn future events
				n := 1 + rng.Intn(2)
				for j := 0; j < n; j++ {
					id := nextID
					nextID++
					cancels = append(cancels, k.KAt(k.KNow()+rng.Exp(2.0), body(id)))
				}
			case 3: // same-time burst: must fire in schedule order
				for j := 0; j < 3; j++ {
					id := nextID
					nextID++
					cancels = append(cancels, k.KAt(k.KNow(), body(id)))
				}
			case 4, 5: // cancel a random outstanding handle (possibly fired)
				if len(cancels) > 0 {
					cancels[rng.Intn(len(cancels))]()
				}
			case 6: // halt mid-run once the script has warmed up
				if fired > 40 {
					k.KHalt()
				}
			case 7: // reserve a stamp; use half of them at once, tying the burst
				st := k.KReserve()
				if rng.Intn(2) == 0 {
					stamps = append(stamps, st)
					break
				}
				id := nextID
				nextID++
				cancels = append(cancels, k.KAtStamp(k.KNow(), st, body(id)))
			case 8: // schedule a stamp reserved by an earlier event at a whole second
				if len(stamps) > 0 {
					st := stamps[0]
					stamps = stamps[1:]
					id := nextID
					nextID++
					cancels = append(cancels, k.KAtStamp(wholeSecondAfter(k.KNow(), rng), st, body(id)))
				}
			case 9: // an ordinary event at a whole second: ties with the stamped ones
				id := nextID
				nextID++
				cancels = append(cancels, k.KAt(wholeSecondAfter(k.KNow(), rng), body(id)))
			case 10: // an equal-time burst whose stamps arrive newest first
				sts := [3]Stamp{k.KReserve(), k.KReserve(), k.KReserve()}
				at := k.KNow()
				if rng.Intn(2) == 0 {
					at = wholeSecondAfter(at, rng)
				}
				cancels = append(cancels, k.KAt(at, leaf())) // the newest seq: fires after all three
				for j := len(sts) - 1; j >= 0; j-- {
					cancels = append(cancels, k.KAtStamp(at, sts[j], leaf()))
				}
			case 11: // a slot boundary ahead, or the window's end: one ulp either side
				slot := math.Floor(k.KNow()*slotRate) + 1 + float64(rng.Intn(3))
				if rng.Intn(2) == 0 {
					slot += ringSlots - 2
				}
				for _, at := range ulpAround(slot / slotRate) {
					cancels = append(cancels, k.KAt(notBefore(k.KNow(), at), leaf()))
				}
			case 12: // a far event, a deadline that migrates into the ring
				id := nextID
				nextID++
				cancels = append(cancels, k.KAt(k.KNow()+2+rng.Exp(0.2), body(id)))
			case 13: // stamps reserved now, queued in one slot ahead, newest first
				sts := [2]Stamp{k.KReserve(), k.KReserve()}
				at := notBefore(k.KNow(), (math.Floor(k.KNow()*slotRate)+1)/slotRate)
				cancels = append(cancels, k.KAt(at, leaf()))
				cancels = append(cancels, k.KAtStamp(notBefore(k.KNow(), math.Nextafter(at, 0)), sts[1], leaf()))
				cancels = append(cancels, k.KAtStamp(at, sts[0], leaf()))
			}
		}
	}

	for i := 0; i < 8; i++ {
		id := nextID
		nextID++
		cancels = append(cancels, k.KAt(rng.Exp(1.0), body(id)))
	}
	for i := 0; i < 3; i++ { // same-time seeds at t=0.5
		id := nextID
		nextID++
		cancels = append(cancels, k.KAt(0.5, body(id)))
	}
	// −0 and +0 tie; then the smallest subnormal, the smallest normal, and
	// times that only the final drain reaches.
	// The slot clamp sits at 2^52 s: times just below, at and above it
	// share or split slots only the final drain reaches.
	for _, at := range []float64{math.Copysign(0, -1), 0, 5e-324, 0x1p-1022, 1e-300,
		math.Nextafter(0x1p52, 0), 0x1p52, math.Nextafter(0x1p52, math.Inf(1)), 0x1p53, 1e300, 1e308} {
		id := nextID
		nextID++
		cancels = append(cancels, k.KAt(at, body(id)))
	}
	// Ticker 0 stops itself after 12 ticks; ticker 1 outlives the first
	// horizon to prove clamped Runs leave pending events intact, and is
	// stopped before the final drain.
	var stopLong func()
	for i := 0; i < 2; i++ {
		id := i
		remaining := 12
		if i == 1 {
			remaining = 1 << 30
		}
		var stop func()
		stop = k.KEvery(0.3+0.45*float64(i), func() {
			log = append(log, logEntry{id, k.KNow()})
			remaining--
			if remaining == 0 {
				stop()
			}
		})
		stopLong = stop
	}

	k.KRun(7)
	log = append(log, logEntry{-1, k.KNow()})
	// From outside the run, between the clock and the next pending event
	// (ticker 1 ticks within 0.75 s): these fire first, so a queue that
	// moved its base to that event while stopping at the horizon fails.
	now := k.KNow()
	for _, d := range []float64{0, 1e-9, 1e-3, 0.01, 0.1} {
		id := nextID
		nextID++
		cancels = append(cancels, k.KAt(now+d, body(id)))
	}
	id := nextID
	nextID++
	cancels = append(cancels, k.KAtStamp(now+1e-3, k.KReserve(), body(id)))
	k.KRun(7) // resumes a halted run, or fires just the event scheduled at the clock
	log = append(log, logEntry{-2, k.KNow()})
	k.KRun(15)
	log = append(log, logEntry{-3, k.KNow()})
	// Stop inside a slot, then schedule into the clock's own slot, at its
	// end and at the window's end: a queue whose cursor passed the clock
	// at the horizon fires these late.
	k.KRun(15 + 0.37/slotRate)
	log = append(log, logEntry{-200, k.KNow()})
	now = k.KNow()
	slot := math.Floor(now * slotRate)
	for _, at := range append(ulpAround((slot+1)/slotRate), now, (slot+ringSlots)/slotRate) {
		id := nextID
		nextID++
		cancels = append(cancels, k.KAt(notBefore(now, at), body(id)))
	}
	k.KRun(16)
	log = append(log, logEntry{-201, k.KNow()})
	stopLong()
	// Drain to the largest finite time, resuming after halts. The
	// script's events spawn fewer than one event each on average, so the
	// queue empties.
	for i := 0; i < 100 && k.KNow() < math.MaxFloat64; i++ {
		k.KRun(math.MaxFloat64)
		log = append(log, logEntry{-4 - i, k.KNow()})
	}
	return log
}

// ulpAround returns t and its two float neighbours.
func ulpAround(t float64) []float64 {
	return []float64{math.Nextafter(t, 0), t, math.Nextafter(t, math.Inf(1))}
}

// notBefore returns t, or the clock now where t precedes it or is not
// finite (slot arithmetic overflows near the largest floats).
func notBefore(now, t float64) float64 {
	if t >= now && !math.IsInf(t, 0) {
		return t
	}
	return now
}

// driveSparse runs the daemon cell's shape: one ticker, and deadlines
// far past the ring's window that are queued, cancelled and re-queued
// under reserved stamps, like the serverless pool's reclaim deadlines.
// Each reaches the ring through a migration, with the ticker in the ring
// or with the ring empty.
func driveSparse(k kernelAPI, seed uint64) []logEntry {
	rng := NewRNG(seed)
	var log []logEntry
	var cancels []func()
	nextID := 0
	deadline := func(at float64) {
		id := nextID
		nextID++
		fire := func() { log = append(log, logEntry{id, k.KNow()}) }
		if rng.Intn(2) == 0 {
			cancels = append(cancels, k.KAt(at, fire))
		} else {
			cancels = append(cancels, k.KAtStamp(at, k.KReserve(), fire))
		}
	}
	stop := k.KEvery(0.25, func() {
		log = append(log, logEntry{-1, k.KNow()})
		switch rng.Intn(4) {
		case 0:
			deadline(k.KNow() + 2 + 60*rng.Float64())
		case 1:
			if len(cancels) > 0 {
				cancels[rng.Intn(len(cancels))]()
			}
			deadline(k.KNow() + ringSlots/slotRate) // the window's end
		}
	})
	for h := 10.0; h < 200; h += 10 + 17*rng.Float64() {
		k.KRun(h)
		log = append(log, logEntry{-2, k.KNow()})
	}
	stop()
	k.KRun(math.MaxFloat64)
	return append(log, logEntry{-3, k.KNow()})
}

// TestRingWindowEdges fires events at the ring's edges in the order the
// reference kernel does: far events at the window's end of the cursor,
// and one slot either side, that migrate as the cursor moves one slot,
// beside events a callback puts in the same slots; and events scheduled
// after horizon stops, between the clock and the next pending event,
// with that event far and the ring empty, and with it in the ring.
func TestRingWindowEdges(t *testing.T) {
	const w = 1.0 / slotRate
	script := func(k kernelAPI) []logEntry {
		var log []logEntry
		id := 0
		mark := func() func() {
			id++
			n := id
			return func() { log = append(log, logEntry{n, k.KNow()}) }
		}
		edges := func(base float64) {
			for _, sl := range []float64{ringSlots, ringSlots + 1, ringSlots + 2} {
				for _, at := range ulpAround(base + sl*w) {
					k.KAt(at, mark())
				}
			}
		}
		edges(0) // far from slot 0; within reach once the cursor is at slot 1
		k.KAt(w, func() {
			log = append(log, logEntry{0, k.KNow()})
			edges(w / 2) // the same slots, later in each
		})
		k.KRun(3)
		log = append(log, logEntry{-1, k.KNow()})

		// A far event one slot short of the window's end once the cursor
		// is at slot 3073: it must migrate then, for the callback puts a
		// later event in its slot, and nothing lies between the two.
		far := (3073 + ringSlots - 1) * w
		k.KAt(3073*w, func() {
			log = append(log, logEntry{0, k.KNow()})
			k.KAt(far+w/2, mark())
		})
		k.KAt(far, mark())
		k.KRun(6)
		log = append(log, logEntry{-1, k.KNow()})

		k.KAt(10, mark()) // far, and the ring is empty
		k.KRun(7.5)
		log = append(log, logEntry{-2, k.KNow()})
		k.KAt(10+w/2, mark()) // in the far event's slot
		k.KAt(8, mark())      // between the clock and both
		k.KRun(9)
		log = append(log, logEntry{-3, k.KNow()})
		k.KAt(9.5, mark()) // the next pending event is now in the ring
		k.KRun(9.25)
		log = append(log, logEntry{-4, k.KNow()})
		k.KAt(9.25, mark()) // in the clock's own slot
		k.KRun(11)
		return append(log, logEntry{-5, k.KNow()})
	}
	got, want := script(simKernel{New(1)}), script(&refKernel{})
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("step %d: fired %+v, want %+v (whole run %v)", i, got[i], want[i], got)
		}
	}
}

// TestCompactionKeepsOrder fires what compaction sweeps leave in the
// order the reference kernel does: sweeps that empty the first occupied
// ring slot, queued from outside a run and from a callback in the
// clock's own slot, with later ring slots and a far entry left, and one
// that empties the whole ring.
func TestCompactionKeepsOrder(t *testing.T) {
	script := func(k kernelAPI, swept func()) []logEntry {
		var log []logEntry
		id := 0
		mark := func() func() {
			id++
			n := id
			return func() { log = append(log, logEntry{n, k.KNow()}) }
		}
		// burst queues 16 events at one time and cancels them all: with
		// fewer than 16 live events queued, the last cancel sweeps.
		burst := func(at float64) {
			var cancels []func()
			for i := 0; i < 16; i++ {
				cancels = append(cancels, k.KAt(at, mark()))
			}
			for _, cancel := range cancels {
				cancel()
			}
			swept()
		}
		k.KAt(1.2, mark())
		k.KAt(1.5, mark())
		k.KAt(1.5, mark())
		k.KAt(4, mark()) // far
		burst(1)
		k.KAt(1.3, func() {
			log = append(log, logEntry{0, k.KNow()})
			burst(k.KNow())
		})
		k.KRun(2)
		log = append(log, logEntry{-1, k.KNow()})
		burst(2.5) // the ring's only slot
		k.KAt(3, mark())
		k.KRun(10)
		return append(log, logEntry{-2, k.KNow()})
	}
	s := New(1)
	got := script(simKernel{s}, func() {
		if s.deadQueued != 0 {
			t.Fatalf("%d cancelled entries still queued: the burst did not sweep", s.deadQueued)
		}
	})
	want := script(&refKernel{}, func() {})
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("step %d: fired %+v, want %+v (whole run %v)", i, got[i], want[i], got)
		}
	}
}

// wholeSecondAfter returns one of the next two whole seconds after now,
// so events the script places there tie at equal times. From 2^53 on,
// where a second is below the float spacing, it returns the next float.
func wholeSecondAfter(now float64, rng *RNG) float64 {
	t := math.Floor(now) + 1 + float64(rng.Intn(2))
	if t <= now {
		t = math.Nextafter(now, math.Inf(1))
	}
	return t
}

func TestKernelDifferentialRandomized(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		for _, drive := range []struct {
			name string
			run  func(kernelAPI, uint64) []logEntry
		}{{"mixed", driveKernel}, {"sparse", driveSparse}} {
			got := drive.run(simKernel{New(999)}, seed)
			want := drive.run(&refKernel{}, seed)
			if len(got) != len(want) {
				t.Fatalf("%s seed %d: trajectory lengths differ: kernel %d vs reference %d",
					drive.name, seed, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s seed %d: trajectories diverge at step %d: kernel %+v vs reference %+v",
						drive.name, seed, i, got[i], want[i])
				}
			}
		}
	}
}

// driveBytes decodes a script from fuzzer bytes, runs it against a
// kernel and returns its trajectory: every firing (id, time) and the
// clock after each Run. Each op byte selects At, At whose firing runs
// the next op from inside the run, Reserve, AtStamp, Cancel or
// Run(horizon). Times are the clock plus a decoded offset: zero, −0
// (which stays −0 at a zero clock), a subnormal, a small fraction, whole
// seconds, a huge value, or any finite non-negative float; or a time at
// a slot boundary or the ring window's end, one ulp either side, a far
// time that migrates into the ring, or one near the slot clamp. Ops the
// kernel would reject as model bugs (a time that overflows, a stamp
// sorting before the event last fired) are skipped, and a final Run
// drains the queue.
func driveBytes(k kernelAPI, data []byte) []logEntry {
	if len(data) > 1024 { // the reference kernel is quadratic
		data = data[:1024]
	}
	var log []logEntry
	var cancels []func()
	type stamp struct {
		st  Stamp
		seq uint64
	}
	var stamps []stamp
	var seq uint64    // the kernel's next sequence number: At and Reserve each take one
	var curAt float64 // the key of the event now firing, or of the last one
	var curSeq uint64 // fired: the zero key before any fires, as in the kernel
	nextID := 0
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		pos++
		return data[pos-1]
	}
	// at decodes a time no earlier than the clock; false if it overflows.
	at := func() (float64, bool) {
		now := k.KNow()
		var off float64
		// around returns the neighbour of t that the next byte picks,
		// or the clock where that precedes it.
		around := func(t float64) (float64, bool) {
			return notBefore(now, ulpAround(t)[next()%3]), true
		}
		switch next() % 16 {
		case 1:
			if off = math.Copysign(0, -1); now == 0 {
				return off, true
			}
		case 2:
			off = 5e-324 * float64(next())
		case 3, 4:
			off = float64(next()) / 64
		case 5:
			off = float64(next()%4) + 1
		case 6:
			off = math.Ldexp(float64(next()), 990+int(next()%30))
		case 7:
			var raw uint64
			for i := 0; i < 8; i++ {
				raw = raw<<8 | uint64(next())
			}
			off = math.Abs(math.Float64frombits(raw))
			if math.IsNaN(off) || math.IsInf(off, 0) {
				off = 0
			}
		case 8: // a slot boundary at or after the clock's slot
			return around((math.Floor(now*slotRate) + float64(next()%4)) / slotRate)
		case 9: // the window's end of a cursor at the clock's slot
			return around((math.Floor(now*slotRate) + ringSlots - 1 + float64(next()%3)) / slotRate)
		case 10:
			off = 2 + float64(next())/8
		case 11: // the slot clamp, 2^52 s, and a few spacings past it
			return around(0x1p52 + float64(next()%4))
		}
		t := now + off
		return t, !math.IsInf(t, 0)
	}
	var step func(inRun bool)
	fire := func(id int, seq uint64, nested bool) func() {
		return func() {
			log = append(log, logEntry{id, k.KNow()})
			curAt, curSeq = k.KNow(), seq
			if nested {
				step(true)
			}
		}
	}
	step = func(inRun bool) {
		switch op := next() % 6; op {
		case 0, 1:
			if t, ok := at(); ok {
				cancels = append(cancels, k.KAt(t, fire(nextID, seq, op == 1)))
				nextID++
				seq++
			}
		case 2:
			stamps = append(stamps, stamp{k.KReserve(), seq})
			seq++
		case 3:
			if len(stamps) == 0 {
				break
			}
			i := int(next()) % len(stamps)
			sp := stamps[i]
			t, ok := at()
			if !ok || t == curAt && sp.seq < curSeq {
				break
			}
			stamps = append(stamps[:i], stamps[i+1:]...)
			cancels = append(cancels, k.KAtStamp(t, sp.st, fire(nextID, sp.seq, false)))
			nextID++
		case 4:
			if len(cancels) > 0 {
				cancels[int(next())%len(cancels)]()
			}
		case 5:
			if t, ok := at(); ok && !inRun {
				k.KRun(t)
				log = append(log, logEntry{-1, k.KNow()})
			}
		}
	}
	for pos < len(data) {
		step(false)
	}
	k.KRun(math.MaxFloat64)
	return append(log, logEntry{-2, k.KNow()})
}

// FuzzEventQueue requires the kernel to fire every fuzzed schedule in the
// order the naive reference kernel does. The seeds stop a run at its
// horizon and then schedule between the clock and the next pending event,
// tie −0 with +0, queue stamps newest first at one time, mix subnormal
// with huge times, straddle slot boundaries and the window's end, and
// stop inside a slot before scheduling into it.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{
		0, 4, 9, 0, 4, 30, 0, 5, 0, // At +9/64 s, +30/64 s, +1 s
		5, 4, 20, // Run to +20/64 s: stops with two events pending
		0, 0, 0, 4, 1, 0, 3, 5, // At the clock, +1/64 s, +5/64 s
		2, 3, 0, 4, 2, // Reserve; AtStamp it at +2/64 s
		5, 4, 50, // Run past them all
	})
	f.Add([]byte{
		2, 2, 2, // three stamps
		3, 2, 1, 3, 1, 1, 3, 0, 1, // the stamps at −0, newest first
		0, 1, 0, 0, // At −0, At +0
		1, 0, // At +0, its firing runs the op after the Run:
		5, 0, // Run to the clock
		0, 0, // At the clock
	})
	f.Add([]byte{
		0, 2, 1, 0, 2, 255, // subnormal offsets
		0, 6, 7, 3, // 7·2^993 s
		0, 7, 0x7f, 0xef, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, // MaxFloat64
		5, 3, 255, // Run to ~4 s
		1, 6, 1, 1, 0, 6, 1, 1, // huge ties, the first scheduling at its firing time
	})
	f.Add([]byte{
		0, 9, 1, 0, 0, 9, 1, 1, 0, 9, 1, 2, // the window's end, one ulp either side
		0, 10, 40, 0, 10, 41, // far: 7 s and 7.125 s, migrating
		5, 3, 100, // Run to ~1.6 s: stops inside a slot
		0, 0, 0, 8, 0, 0, 0, 8, 1, 0, // At the clock, at its slot's start (the clock)
		0, 8, 1, 2, 2, 3, 0, 8, 1, 1, // next boundary + ulp; Reserve; AtStamp on it
		0, 11, 0, 1, 0, 11, 0, 0, // the clamp and the float below it
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		got := driveBytes(simKernel{New(1)}, data)
		want := driveBytes(&refKernel{}, data)
		if len(got) != len(want) {
			t.Fatalf("trajectory lengths differ: kernel %d vs reference %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trajectories diverge at step %d: kernel %+v vs reference %+v", i, got[i], want[i])
			}
		}
	})
}

// --- Reserve-then-schedule ---

// TestStampFiresWhereAtWould schedules the same script twice: once with
// At calls made at the moment of reservation, once with stamps reserved
// at that moment and queued by a later event. Both runs must fire the
// same ids at the same times, including ties at the stamped time with
// events scheduled before the reservation, after it, and after the
// stamped event itself was queued.
func TestStampFiresWhereAtWould(t *testing.T) {
	run := func(stamped bool) []logEntry {
		s := New(1)
		var log []logEntry
		mark := func(id int) func() {
			return func() { log = append(log, logEntry{id, float64(s.Now())}) }
		}
		// reserve stands for "schedule id at t=5 now": an At call in the
		// plain run, a stamp queued later in the stamped run.
		reserve := func(id int) Stamp {
			if stamped {
				return s.Reserve()
			}
			s.At(5, mark(id))
			return Stamp{}
		}
		queue := func(st Stamp, id int) {
			if stamped {
				s.AtStamp(5, st, mark(id))
			}
		}
		s.At(5, mark(1)) // scheduled before the reservations
		s.At(2, func() {
			st10, st11 := reserve(10), reserve(11)
			s.At(5, mark(2)) // scheduled after the reservations
			s.At(3, func() {
				s.At(5, mark(3)) // scheduled before the stamps are queued
				queue(st11, 11)  // queued out of reservation order
				queue(st10, 10)
				s.At(5, mark(4)) // scheduled after the stamps are queued
			})
		})
		s.At(5, func() {
			// A stamp reserved while an event fires may be queued at the
			// current time: it fires later in the same instant.
			st := reserve(21)
			s.At(5, mark(20))
			queue(st, 21)
		})
		s.Run(10)
		return log
	}
	want := []logEntry{{1, 5}, {10, 5}, {11, 5}, {2, 5}, {3, 5}, {4, 5}, {21, 5}, {20, 5}}
	for _, stamped := range []bool{false, true} {
		got := run(stamped)
		if len(got) != len(want) {
			t.Fatalf("stamped=%v fired %v, want %v", stamped, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("stamped=%v fired %v, want %v", stamped, got, want)
			}
		}
	}
}

// TestAtStampPanics covers the three misuses AtStamp rejects: a time in
// the past, a stamp Reserve never returned, and a key that sorts before
// the event now firing.
func TestAtStampPanics(t *testing.T) {
	expectPanic := func(t *testing.T, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		f()
	}
	t.Run("past", func(t *testing.T) {
		s := New(1)
		st := s.Reserve()
		s.Run(5)
		expectPanic(t, func() { s.AtStamp(4, st, func() {}) })
	})
	t.Run("unreserved", func(t *testing.T) {
		s := New(1)
		expectPanic(t, func() { s.AtStamp(1, Stamp{}, func() {}) })
		other := New(2)
		other.Reserve()
		other.Reserve()
		st := other.Reserve() // beyond any sequence number s has issued
		s.Reserve()
		expectPanic(t, func() { s.AtStamp(1, st, func() {}) })
	})
	t.Run("before-firing", func(t *testing.T) {
		s := New(1)
		early := s.Reserve()
		s.At(3, func() {
			expectPanic(t, func() { s.AtStamp(3, early, func() {}) })
			s.AtStamp(3.5, early, func() {}) // a later time is fine
		})
		s.Run(10)
		if s.Events() != 2 {
			t.Errorf("Events() = %d, want 2", s.Events())
		}
	})
}

// --- Zero-allocation contracts (DESIGN.md §10) ---

// TestZeroAllocSchedule asserts the steady-state schedule+fire path
// allocates nothing: slot from the free list, ring slot or far bucket in
// place, callback invoked, slot released — for fresh and reserved keys
// alike, and for far events that migrate into the ring.
//
//amoeba:alloctest sim.Simulator.At sim.Simulator.After sim.Simulator.schedule
//amoeba:alloctest sim.Simulator.Run sim.Simulator.alloc sim.Simulator.release
//amoeba:alloctest sim.Simulator.push sim.Simulator.pushSeq sim.Simulator.pop
//amoeba:alloctest sim.Simulator.file sim.Simulator.nextSlot
//amoeba:alloctest sim.Simulator.migrate sim.slotOf sim.Simulator.checkTime
//amoeba:alloctest sim.farTier.put sim.farTier.bounds
//amoeba:alloctest sim.Simulator.Reserve sim.Simulator.AtStamp
func TestZeroAllocSchedule(t *testing.T) {
	s := New(1)
	fn := func() {}
	batch := func() {
		st := s.Reserve()
		s.After(1, fn)
		s.At(s.Now()+2, fn)
		s.AtStamp(s.Now()+2, st, fn)
		for i := 0; i < 3; i++ { // far, tied
			s.After(5, fn)
		}
		s.Run(s.Now() + 6)
	}
	for i := 0; i < 64; i++ { // warm the slab and free list
		batch()
	}

	allocs := testing.AllocsPerRun(1000, batch)
	if allocs != 0 {
		t.Errorf("schedule+fire allocates %.1f objects per event in steady state, want 0", allocs)
	}
}

// TestZeroAllocEveryTick asserts a recurring ticker's firings reuse its
// slot: ticks cost no allocation after the initial schedule. The ticker
// re-queue path shares Run/push/pop with the one-shot test above.
//
//amoeba:alloctest sim.Simulator.Run
func TestZeroAllocEveryTick(t *testing.T) {
	s := New(1)
	stop := s.Every(1, func() {})
	defer stop()
	s.Run(64) // warm up: slot in place

	horizon := s.Now()
	allocs := testing.AllocsPerRun(100, func() {
		horizon += 16
		s.Run(horizon)
	})
	if allocs != 0 {
		t.Errorf("Every ticks allocate %.3f objects per 16 ticks, want 0", allocs)
	}
}

// TestZeroAllocCancel asserts the cancel path is allocation-free in
// steady state, including the bulk compaction sweep: cancelling 64 of 64
// queued events trips maybeCompact's dead-majority threshold on every
// run, so compact's list sweeps and slot releases execute inside the
// AllocsPerRun window.
//
//amoeba:alloctest sim.EventHandle.Cancel sim.Simulator.maybeCompact sim.Simulator.compact
//amoeba:alloctest sim.Simulator.sweep
func TestZeroAllocCancel(t *testing.T) {
	s := New(1)
	fn := func() {}
	var handles [64]EventHandle
	churn := func() {
		for i := range handles {
			handles[i] = s.After(float64(i+1), fn)
		}
		for i := range handles {
			handles[i].Cancel()
		}
		s.Run(s.Now() + 128)
	}
	for i := 0; i < 4; i++ { // warm slab and free list
		churn()
	}
	if s.Cancelled() == 0 {
		t.Fatal("warm-up cancelled nothing; the churn harness is broken")
	}

	allocs := testing.AllocsPerRun(100, churn)
	if allocs != 0 {
		t.Errorf("schedule+cancel+compact allocates %.2f objects per 64-event batch, want 0", allocs)
	}
}
