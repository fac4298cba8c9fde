package serverless

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"testing"

	"amoeba/internal/arrival"
	"amoeba/internal/metrics"
	"amoeba/internal/obs"
	"amoeba/internal/sim"
	"amoeba/internal/trace"
	"amoeba/internal/workload"
)

// overloadReplayDigest pins the byte-exact outcome of runOverloadReplay:
// every QueryRecord and every JSONL event (query, cold-start and span
// events) in emission order. It was captured from the single shared-queue
// implementation the per-function queues replaced, so it proves that the
// k-way merge places the same activations in the same order, draws the
// same random numbers and allocates the same span IDs. A drift here is a
// behaviour change of the platform, never a refactoring detail.
const overloadReplayDigest = "221e5932522f0f6a19da202531057c4c84954ac8d06b9d3262ccbab4e3a68d0e"

// replayStats are the scenario facts the golden run must exercise.
type replayStats struct {
	maxQueue  int
	evictions int
	rejected  int
	prewarmed int
	released  int
	mmQueued  int // matmul activations that waited behind the dd backlog
	flQueued  int // float activations that waited despite the warm floor
}

// runOverloadReplay drives three functions on an eight-container node
// with a bounded queue, a tracer and a JSONL bus attached, and writes
// every record and event into h. dd is capped at one container and
// overloaded in two waves, so its backlog fills the queue and MaxQueue
// rejects the overflow; matmul and float bursts compete for the memory
// the other functions' idle containers hold and queue behind dd; float
// keeps a warm-pool floor; and Prewarm and ReleaseIdle calls land while
// the backlog is deep.
func runOverloadReplay(t *testing.T, h hash.Hash, setup func(*Platform)) replayStats {
	t.Helper()
	s := sim.New(0xA0EBA)
	cfg := DefaultConfig()
	cfg.Node.MemMB = 2048 // eight 256 MB containers
	cfg.MemReserve = 0
	cfg.MaxQueue = 60
	p := New(s, cfg)
	bus := obs.NewBus()
	jw := obs.NewJSONLWriter(h)
	bus.Attach(jw)
	p.SetBus(bus)
	p.SetTracer(obs.NewTracer(bus))
	if setup != nil {
		setup(p)
	}

	var st replayStats
	record := func(r metrics.QueryRecord) {
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
	p.Register(fl, record, WithMinWarm(1))

	burst := func(name string, n int) func() {
		return func() {
			for i := 0; i < n; i++ {
				p.Invoke(name)
			}
		}
	}
	s.At(1, burst("mm", 6))
	ddFast := arrival.New(s, trace.Constant{QPS: 14}, func(sim.Time) { p.Invoke("dd") })
	s.At(5, ddFast.Start)
	s.At(25, ddFast.Stop)
	ddSlow := arrival.New(s, trace.Constant{QPS: 5}, func(sim.Time) { p.Invoke("dd") })
	s.At(45, ddSlow.Start)
	s.At(80, ddSlow.Stop)
	flGen := arrival.New(s, trace.Constant{QPS: 1.5}, func(sim.Time) { p.Invoke("fl") })
	flGen.Start()
	s.At(95, flGen.Stop)
	s.At(20, burst("mm", 10))
	s.At(30, func() { st.prewarmed = p.Prewarm("fl", 2, nil) })
	s.At(32, burst("mm", 8))
	s.At(40, func() { st.released = p.ReleaseIdle("mm") })
	s.At(50, burst("fl", 12))
	s.At(52, burst("mm", 8))
	s.At(60, func() { st.released += p.ReleaseIdle("fl") })
	s.At(62, burst("fl", 6))
	s.Every(0.5, func() {
		if q := p.QueueLength(); q > st.maxQueue {
			st.maxQueue = q
		}
	})
	s.Run(300)

	if err := jw.Err(); err != nil {
		t.Fatalf("JSONL writer: %v", err)
	}
	st.evictions = p.Evictions()
	st.rejected = p.Rejected("dd") + p.Rejected("mm") + p.Rejected("fl")
	return st
}

// TestOverloadReplayGolden pins the platform's exact behaviour through an
// nMax-blocked backlog with cross-function eviction, MaxQueue rejects, a
// warm-pool floor, and a Prewarm and ReleaseIdle mid-backlog.
func TestOverloadReplayGolden(t *testing.T) {
	h := sha256.New()
	st := runOverloadReplay(t, h, nil)
	t.Logf("%+v", st)
	if st.maxQueue < 60 || st.evictions == 0 || st.rejected == 0 ||
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
			if p.QueueLength() >= 30 {
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

// TestActRingFIFO checks the ring against a slice model across growth
// with a wrapped head: interleaved pushes and pops must come out in
// push order.
func TestActRingFIFO(t *testing.T) {
	var r actRing
	var model []*activation
	for i := 0; i < 500; i++ {
		act := &activation{seq: uint64(i)}
		r.push(act)
		model = append(model, act)
		if i%3 == 2 { // pop two of every three: the ring grows while its head wraps
			for k := 0; k < 2 && r.n > 0; k++ {
				if r.front() != model[0] {
					t.Fatalf("front seq %d, want %d", r.front().seq, model[0].seq)
				}
				r.pop()
				model = model[1:]
			}
		}
	}
	if r.n != len(model) {
		t.Fatalf("ring holds %d, model %d", r.n, len(model))
	}
	for ; r.n > 0; model = model[1:] {
		if r.front() != model[0] {
			t.Fatalf("front seq %d, want %d", r.front().seq, model[0].seq)
		}
		r.pop()
	}
}
