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
// cancelled event would sit in the heap until its firing time.
func TestPendingBoundedUnderCancelChurn(t *testing.T) {
	s := New(1)
	fn := func() {}

	// A few live events pin the heap to prove the sweep keeps them.
	for i := 0; i < 4; i++ {
		s.At(Time(1e6+float64(i)), fn)
	}

	const churn = 100000
	maxPending := 0
	for i := 0; i < churn; i++ {
		h := s.At(Time(100+float64(i%977)), fn)
		h.Cancel()
		if p := s.Pending(); p > maxPending {
			maxPending = p
		}
	}
	// The sweep triggers once dead events reach 16 and outnumber the
	// live half; with 4 live events the queue can never grow past ~2x
	// the threshold.
	if maxPending > 64 {
		t.Errorf("Pending() peaked at %d under cancel churn, want bounded (<= 64)", maxPending)
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
// the slab/heap kernel must match its visible behaviour exactly.
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
// event), self-stopping Every tickers, Halt, and horizon clamping with
// resume.
func driveKernel(k kernelAPI, seed uint64) []logEntry {
	rng := NewRNG(seed)
	var log []logEntry
	var cancels []func()
	var stamps []Stamp // reserved, not yet scheduled
	nextID := 1000
	fired := 0

	var body func(id int) func()
	body = func(id int) func() {
		return func() {
			log = append(log, logEntry{id, k.KNow()})
			fired++
			switch rng.Intn(12) {
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
	// Ticker 0 stops itself after 12 ticks; ticker 1 outlives the first
	// horizon to prove clamped Runs leave pending events intact.
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
	}

	k.KRun(7)
	log = append(log, logEntry{-1, k.KNow()})
	k.KRun(7) // immediate re-run at the same horizon: nothing new fires
	log = append(log, logEntry{-2, k.KNow()})
	k.KRun(15)
	log = append(log, logEntry{-3, k.KNow()})
	return log
}

// wholeSecondAfter returns one of the next two whole seconds after now,
// so events the script places there tie at equal times.
func wholeSecondAfter(now float64, rng *RNG) float64 {
	return math.Floor(now) + 1 + float64(rng.Intn(2))
}

func TestKernelDifferentialRandomized(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		got := driveKernel(simKernel{New(999)}, seed)
		want := driveKernel(&refKernel{}, seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: trajectory lengths differ: kernel %d vs reference %d",
				seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: trajectories diverge at step %d: kernel %+v vs reference %+v",
					seed, i, got[i], want[i])
			}
		}
	}
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
// allocates nothing: slot from the free list, heap in place, callback
// invoked, slot released — for fresh and reserved keys alike.
//
//amoeba:alloctest sim.Simulator.At sim.Simulator.After sim.Simulator.schedule
//amoeba:alloctest sim.Simulator.Run sim.Simulator.alloc sim.Simulator.release
//amoeba:alloctest sim.before sim.Simulator.push sim.Simulator.pushSeq sim.Simulator.popMin
//amoeba:alloctest sim.Simulator.siftUp sim.Simulator.siftDown sim.Simulator.checkTime
//amoeba:alloctest sim.Simulator.Reserve sim.Simulator.AtStamp
func TestZeroAllocSchedule(t *testing.T) {
	s := New(1)
	fn := func() {}
	for i := 0; i < 256; i++ { // warm the slab, free list and heap
		s.After(1, fn)
	}
	s.Run(1e6)

	allocs := testing.AllocsPerRun(1000, func() {
		st := s.Reserve()
		s.After(1, fn)
		s.At(s.Now()+2, fn)
		s.AtStamp(s.Now()+2, st, fn)
		s.Run(s.Now() + 3)
	})
	if allocs != 0 {
		t.Errorf("schedule+fire allocates %.1f objects per event in steady state, want 0", allocs)
	}
}

// TestZeroAllocEveryTick asserts a recurring ticker's firings reuse its
// slot: ticks cost no allocation after the initial schedule. The ticker
// re-queue path shares Run/push/siftDown with the one-shot test above.
//
//amoeba:alloctest sim.Simulator.Run
func TestZeroAllocEveryTick(t *testing.T) {
	s := New(1)
	stop := s.Every(1, func() {})
	defer stop()
	s.Run(64) // warm up: heap sized, slot in place

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
// run, so compact's heap rebuild and slot releases execute inside the
// AllocsPerRun window.
//
//amoeba:alloctest sim.EventHandle.Cancel sim.Simulator.maybeCompact sim.Simulator.compact
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
	for i := 0; i < 4; i++ { // warm slab, free list and heap capacity
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
