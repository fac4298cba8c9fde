package serverless

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"testing"

	"amoeba/internal/arrival"
	"amoeba/internal/fifo"
	"amoeba/internal/metrics"
	"amoeba/internal/obs"
	"amoeba/internal/sim"
	"amoeba/internal/trace"
	"amoeba/internal/workload"
)

// overloadReplayDigest pins the byte-exact outcome of runOverloadReplay:
// every replayRecord and every JSONL event (query, cold-start and span
// events) in emission order. It was captured on the platform that still
// carried a bounded queue and a warm-pool floor, neither set here, so it
// proves that deleting them changed nothing: the same activations are
// placed in the same order, draw the same random numbers and get the
// same span IDs. A drift here is a behaviour change of the platform,
// never a refactoring detail.
const overloadReplayDigest = "ca8fdc8865e9e38167f57ff30dcc9cb5626c0fcb044c24b2147fa8c3acfb4f1b"

// replayRecord is what the goldens hash for each completion: the record
// the callback receives, plus the service and arrival time of the
// QueryComplete the platform lends to the bus just before the callback.
type replayRecord struct {
	Service   string
	Backend   metrics.Backend
	ArrivedAt float64
	Breakdown metrics.Breakdown
}

func newReplayRecord(p *Platform, r metrics.QueryRecord) replayRecord {
	return replayRecord{
		Service:   p.done.Service,
		Backend:   r.Backend,
		ArrivedAt: float64(p.done.Arrived),
		Breakdown: r.Breakdown,
	}
}

// countExpiries wraps every registered function's reclaim so that a test
// can tell evictions from expiries: the platform destroys a container
// only when it expires, in ReleaseIdle, or by eviction.
func countExpiries(p *Platform, n *int) {
	for _, f := range p.registered {
		expire := f.expire
		f.expire = func() { *n++; expire() }
	}
}

// evictions returns how many containers eviction destroyed so far, given
// the expiries countExpiries saw and the containers ReleaseIdle returned.
func evictions(p *Platform, expired, released int) int {
	live := 0
	for _, f := range p.registered {
		live += f.containers
	}
	return p.nextID - live - expired - released
}

// replayStats are the scenario facts the golden run must exercise.
type replayStats struct {
	maxQueue  int
	evictions int
	prewarmed int
	released  int
	mmQueued  int // matmul activations that waited behind the dd backlog
	flQueued  int // float activations that waited behind the dd backlog
}

// runOverloadReplay drives three functions on an eight-container node
// with a tracer and a JSONL bus attached, and writes every record and
// event into h. dd is capped at one container and overloaded in two
// waves, so its backlog grows deep; matmul and float bursts compete for
// the memory the other functions' idle containers hold and queue behind
// dd; and Prewarm and ReleaseIdle calls land while the backlog is deep.
func runOverloadReplay(t *testing.T, h hash.Hash, setup func(*Platform)) replayStats {
	t.Helper()
	s := sim.New(0xA0EBA)
	cfg := DefaultConfig()
	cfg.Node.MemMB = 2048 // eight 256 MB containers
	cfg.MemReserve = 0
	p, jw := newReplayPlatform(s, cfg, h)
	if setup != nil {
		setup(p)
	}

	var st replayStats
	record := func(qr metrics.QueryRecord) {
		jw.Flush() // the events emitted before this record precede it in h
		r := newReplayRecord(p, qr)
		fmt.Fprintf(h, "%+v\n", r)
		if r.Breakdown.Queue > 0 {
			switch r.Service {
			case "mm":
				st.mmQueued++
			case "fl":
				st.flQueued++
			}
		}
	}
	dd := workload.DD()
	mm := workload.Matmul()
	mm.Name = "mm"
	fl := workload.Float()
	fl.Name = "fl"
	p.Register(dd, record, WithNMax(1))
	p.Register(mm, record)
	p.Register(fl, record)
	expired := 0
	countExpiries(p, &expired)

	burst := func(name string, n int) func() {
		return func() {
			for i := 0; i < n; i++ {
				p.Bind(name).Invoke()
			}
		}
	}
	s.At(1, burst("mm", 6))
	ddFast := arrival.New(s, trace.Step{Before: 14, After: 0, At: 25}, func(sim.Time) { p.Bind("dd").Invoke() })
	s.At(5, ddFast.Start)
	ddSlow := arrival.New(s, trace.Step{Before: 5, After: 0, At: 80}, func(sim.Time) { p.Bind("dd").Invoke() })
	s.At(45, ddSlow.Start)
	flGen := arrival.New(s, trace.Step{Before: 1.5, After: 0, At: 95}, func(sim.Time) { p.Bind("fl").Invoke() })
	flGen.Start()
	s.At(20, burst("mm", 10))
	s.At(30, func() { st.prewarmed = p.Prewarm("fl", 2, nil) })
	s.At(32, burst("mm", 8))
	s.At(40, func() { st.released = p.ReleaseIdle("mm") })
	s.At(50, burst("fl", 12))
	s.At(52, burst("mm", 8))
	s.At(60, func() { st.released += p.ReleaseIdle("fl") })
	s.At(62, burst("fl", 6))
	s.Every(0.5, func() {
		if q := p.queued; q > st.maxQueue {
			st.maxQueue = q
		}
	})
	s.Run(300)

	if err := jw.Err(); err != nil {
		t.Fatalf("JSONL writer: %v", err)
	}
	st.evictions = evictions(p, expired, st.released)
	return st
}

// newReplayPlatform builds a golden-family platform with a tracer and a
// JSONL bus that writes every event into h. The writer encodes on its
// own goroutine, so a caller writing into h too flushes it first.
func newReplayPlatform(s *sim.Simulator, cfg Config, h hash.Hash) (*Platform, *obs.JSONLWriter) {
	p := New(s, cfg)
	bus := obs.NewBus()
	jw := obs.NewJSONLWriter(h)
	bus.Attach(jw)
	p.SetBus(bus)
	p.SetTracer(obs.NewTracer(bus))
	return p, jw
}

// TestOverloadReplayGolden pins the platform's exact behaviour through an
// nMax-blocked backlog with cross-function eviction and a Prewarm and
// ReleaseIdle mid-backlog.
func TestOverloadReplayGolden(t *testing.T) {
	h := sha256.New()
	st := runOverloadReplay(t, h, nil)
	t.Logf("%+v", st)
	if st.maxQueue < 60 || st.evictions == 0 ||
		st.prewarmed == 0 || st.released == 0 || st.mmQueued == 0 || st.flQueued == 0 {
		t.Errorf("scenario no longer exercises the queue paths: %+v", st)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != overloadReplayDigest {
		t.Errorf("replay digest = %s, want %s", got, overloadReplayDigest)
	}
}

// TestPumpScanBound asserts the queue's cost model on the golden
// scenario: every pump attempts at most one failed place per waiting
// function on top of its successful placements, however deep the
// backlog, and the probe leaves the replay digest untouched.
func TestPumpScanBound(t *testing.T) {
	h := sha256.New()
	pumps, deep := 0, 0
	runOverloadReplay(t, h, func(p *Platform) {
		p.pumpProbe = func(attempts, placed, waiting int) {
			pumps++
			if p.queued >= 30 {
				deep++
			}
			if attempts > placed+waiting {
				t.Errorf("pump made %d place attempts for %d placements and %d waiting functions",
					attempts, placed, waiting)
			}
		}
	})
	if pumps == 0 || deep == 0 {
		t.Errorf("probe saw %d pumps, %d over a deep backlog", pumps, deep)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != overloadReplayDigest {
		t.Errorf("replay digest with probe = %s, want %s", got, overloadReplayDigest)
	}
}

// tieReplayDigest pins runTieReplay the way overloadReplayDigest pins
// runOverloadReplay. It was captured on the platform whose reclaim
// deadline could skip an expired prefix of the idle list kept for a
// warm-pool floor, so it proves that the deadline on idle[0] fires the
// same expiries at the same (time, sequence) keys.
const tieReplayDigest = "1b74739807fdfd17c977fe4ef0a6b2b563f14d1562ce75543b1402317a4e05c9"

// tieStats are the tie facts the golden run must exercise.
type tieStats struct {
	evictions int
	earlyWarm bool // b's Invoke at 62, scheduled first, reused the expiring container
	lateCold  int  // a's and d's Invokes at 62, scheduled later, that cold-started behind the expiries
	fCold     int  // f's Invokes at 65 that cold-started: the middle container expired at 64
	records   int
}

// runTieReplay drives reclaim through equal-time ties. Cold starts are
// deterministic (ColdStartCV = 0 and a 1 s mean, so every delay is
// exactly 1 s) on an eight-container node:
//
//   - f prewarms one container at 0, 3 and 5, so its three idle at 1, 4
//     and 6;
//   - a (two containers), b (one) and d (two) prewarm at 1, so all five
//     idle at 2 and their expiries coincide at 62;
//   - c's two cold starts at 30 find the pool full: the first evicts f's
//     oldest container, the longest idle, and the reclaim deadline moves
//     to f's middle one; the second evicts a's oldest, the first of a's
//     to expire;
//   - at 62, an Invoke of b scheduled before the containers idled reuses
//     b's container ahead of its expiry, while Invokes of a and d
//     scheduled after they idled (at 10 and 20, before a's eviction and
//     d's first expiry moved their next expiries) land behind both of
//     their function's expiries and cold-start;
//   - at 65, after f's middle container expired at 64, two Invokes of f
//     find only the newest one warm, so exactly one cold-starts;
//   - Poisson traffic on all five from 130 to 400 then churns the pool
//     with evictions and reuse, and everything idles out by 600.
func runTieReplay(t *testing.T, h hash.Hash) tieStats {
	t.Helper()
	s := sim.New(0x71E5)
	cfg := DefaultConfig()
	cfg.ColdStartMean = 1
	cfg.ColdStartCV = 0
	cfg.Node.MemMB = 2048 // eight 256 MB containers
	cfg.MemReserve = 0
	p, jw := newReplayPlatform(s, cfg, h)

	var st tieStats
	record := func(qr metrics.QueryRecord) {
		jw.Flush() // the events emitted before this record precede it in h
		r := newReplayRecord(p, qr)
		fmt.Fprintf(h, "%+v\n", r)
		st.records++
		switch {
		case r.Service == "b" && r.ArrivedAt == 62:
			st.earlyWarm = r.Breakdown.ColdStart == 0
		case (r.Service == "a" || r.Service == "d") && r.ArrivedAt == 62 && r.Breakdown.ColdStart > 0:
			st.lateCold++
		case r.Service == "f" && r.ArrivedAt == 65 && r.Breakdown.ColdStart > 0:
			st.fCold++
		}
	}
	for _, name := range []string{"a", "b", "c", "d", "f"} {
		prof := workload.Float()
		prof.Name = name
		p.Register(prof, record)
	}
	expired := 0
	countExpiries(p, &expired)

	s.At(62, func() { p.Bind("b").Invoke() }) // scheduled before b's container idles
	for _, at := range []sim.Time{0, 3, 5} {
		s.At(at, func() { p.Prewarm("f", 1, nil) })
	}
	s.At(1, func() {
		p.Prewarm("a", 2, nil)
		p.Prewarm("b", 1, nil)
		p.Prewarm("d", 2, nil)
	})
	s.At(10, func() { s.At(62, func() { p.Bind("a").Invoke() }) })
	s.At(20, func() { s.At(62, func() { p.Bind("d").Invoke() }) })
	s.At(30, func() {
		p.Bind("c").Invoke()
		p.Bind("c").Invoke()
	})
	s.At(65, func() {
		p.Bind("f").Invoke()
		p.Bind("f").Invoke()
	})
	for i, name := range []string{"a", "b", "c", "d", "f"} {
		g := arrival.New(s, trace.Step{Before: 0.4 + 0.3*float64(i), After: 0, At: 400},
			func(sim.Time) { p.Bind(name).Invoke() })
		s.At(130, g.Start)
	}
	s.Run(600)

	if err := jw.Err(); err != nil {
		t.Fatalf("JSONL writer: %v", err)
	}
	st.evictions = evictions(p, expired, 0)
	return st
}

// TestTieReplayGolden pins the platform's exact reclaim behaviour when
// idle deadlines tie with each other and with Invokes, and where the
// deadline moves after an eviction of the container that expires first.
func TestTieReplayGolden(t *testing.T) {
	h := sha256.New()
	st := runTieReplay(t, h)
	t.Logf("%+v", st)
	if st.evictions < 2 || !st.earlyWarm || st.lateCold != 2 || st.fCold != 1 || st.records < 100 {
		t.Errorf("scenario no longer exercises the tie paths: %+v", st)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != tieReplayDigest {
		t.Errorf("tie replay digest = %s, want %s", got, tieReplayDigest)
	}
}

// TestActRingFIFO checks the activation queue's ring against a slice
// model across growth with a wrapped head: interleaved pushes and pops
// must come out in push order.
func TestActRingFIFO(t *testing.T) {
	var r fifo.Ring[*activation]
	var model []*activation
	for i := 0; i < 500; i++ {
		act := &activation{seq: uint64(i)}
		r.Push(act)
		model = append(model, act)
		if i%3 == 2 { // pop two of every three: the ring grows while its head wraps
			for k := 0; k < 2 && r.Len() > 0; k++ {
				if r.Front() != model[0] {
					t.Fatalf("front seq %d, want %d", r.Front().seq, model[0].seq)
				}
				r.Pop()
				model = model[1:]
			}
		}
	}
	if r.Len() != len(model) {
		t.Fatalf("ring holds %d, model %d", r.Len(), len(model))
	}
	for ; r.Len() > 0; model = model[1:] {
		if r.Front() != model[0] {
			t.Fatalf("front seq %d, want %d", r.Front().seq, model[0].seq)
		}
		r.Pop()
	}
}
