package serverless

import (
	"io"
	"math"
	"testing"

	"amoeba/internal/arrival"
	"amoeba/internal/contention"
	"amoeba/internal/metrics"
	"amoeba/internal/obs"
	"amoeba/internal/sim"
	"amoeba/internal/trace"
	"amoeba/internal/workload"
)

func newPlatform(seed uint64) (*sim.Simulator, *Platform) {
	s := sim.New(seed)
	return s, New(s, DefaultConfig())
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	for name, edit := range map[string]func(*Config){
		"node without memory":  func(c *Config) { c.Node.MemMB = 0 },
		"zero cold start":      func(c *Config) { c.ColdStartMean = 0 },
		"negative cold CV":     func(c *Config) { c.ColdStartCV = -0.1 },
		"zero idle timeout":    func(c *Config) { c.IdleTimeout = 0 },
		"reserve of all":       func(c *Config) { c.MemReserve = 1 },
		"negative mem reserve": func(c *Config) { c.MemReserve = -0.1 },
	} {
		bad := DefaultConfig()
		edit(&bad)
		if bad.Validate() == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestNMaxTakesTheTighterBound checks n_max = min(1/δ, M₀/M₁): the share
// bound on the default node, the memory bound on a small one.
func TestNMaxTakesTheTighterBound(t *testing.T) {
	if got := DefaultConfig().NMax(); got != 10 {
		t.Errorf("default n_max = %d, want 1/δ = 10", got)
	}
	small := DefaultConfig()
	small.Node.MemMB = 600
	small.MemReserve = 0
	if got := small.NMax(); got != 2 {
		t.Errorf("600 MB node n_max = %d, want 600/256 rounded down = 2", got)
	}
}

func TestFirstInvocationColdStarts(t *testing.T) {
	s, p := newPlatform(1)
	var recs []metrics.QueryRecord
	p.Register(workload.Float(), func(r metrics.QueryRecord) { recs = append(recs, r) })
	s.At(1, func() { p.Bind("float").Invoke() })
	s.Run(100)
	if len(recs) != 1 {
		t.Fatalf("completed %d queries, want 1", len(recs))
	}
	r := recs[0]
	if r.Breakdown.ColdStart <= 0 {
		t.Error("first invocation did not pay a cold start")
	}
	if r.Breakdown.ColdStart < 0.3 || r.Breakdown.ColdStart > 5 {
		t.Errorf("cold start %vs outside the 1-3s ballpark", r.Breakdown.ColdStart)
	}
	if r.Backend != metrics.BackendServerless {
		t.Errorf("backend = %v", r.Backend)
	}
	// Cold code load is amplified.
	if r.Breakdown.CodeLoad <= workload.Float().Overheads.CodeLoadHot {
		t.Error("cold path did not amplify code load")
	}
}

func TestWarmReuseAvoidsColdStart(t *testing.T) {
	s, p := newPlatform(2)
	var recs []metrics.QueryRecord
	p.Register(workload.Float(), func(r metrics.QueryRecord) { recs = append(recs, r) })
	s.At(1, func() { p.Bind("float").Invoke() })
	s.At(20, func() { p.Bind("float").Invoke() }) // within the 60s idle window
	s.Run(100)
	if len(recs) != 2 {
		t.Fatalf("completed %d queries, want 2", len(recs))
	}
	if recs[1].Breakdown.ColdStart != 0 {
		t.Errorf("second invocation cold-started (%vs)", recs[1].Breakdown.ColdStart)
	}
	if recs[1].Breakdown.Queue != 0 {
		t.Errorf("second invocation queued %vs with an idle container", recs[1].Breakdown.Queue)
	}
	if p.nextID != 1 {
		t.Errorf("containers started = %d, want 1", p.nextID)
	}
}

func TestIdleTimeoutReclaims(t *testing.T) {
	s, p := newPlatform(3)
	p.Register(workload.Float(), nil)
	s.At(1, func() { p.Bind("float").Invoke() })
	s.Run(30)
	if p.fns["float"].containers != 1 {
		t.Fatalf("containers = %d before timeout", p.fns["float"].containers)
	}
	s.Run(200) // well past the 60s idle timeout
	if p.fns["float"].containers != 0 {
		t.Errorf("containers = %d after idle timeout, want 0", p.fns["float"].containers)
	}
	if p.memMB != 0 {
		t.Errorf("pool memory %vMB after reclaim, want 0", p.memMB)
	}
}

func TestReuseCancelsReclaim(t *testing.T) {
	s, p := newPlatform(4)
	p.Register(workload.Float(), nil)
	// Keep poking the container every 30s: it must survive far beyond 60s.
	for i := 1; i <= 10; i++ {
		tt := float64(i) * 30
		s.At(sim.Time(tt), func() { p.Bind("float").Invoke() })
	}
	s.Run(301)
	if p.fns["float"].containers != 1 {
		t.Errorf("containers = %d, want 1 continuously-reused container", p.fns["float"].containers)
	}
	if p.nextID != 1 {
		t.Errorf("containers started = %d, want 1", p.nextID)
	}
}

func TestPrewarmEliminatesColdStart(t *testing.T) {
	s, p := newPlatform(5)
	var recs []metrics.QueryRecord
	p.Register(workload.Float(), func(r metrics.QueryRecord) { recs = append(recs, r) })
	ready := false
	s.At(1, func() {
		n := p.Prewarm("float", 3, func() { ready = true })
		if n != 3 {
			t.Errorf("prewarmed %d, want 3", n)
		}
	})
	s.At(30, func() {
		if !ready {
			t.Error("prewarm not ready after 29s")
		}
		if len(p.fns["float"].idle) != 3 {
			t.Errorf("idle = %d after prewarm, want 3", len(p.fns["float"].idle))
		}
		for i := 0; i < 3; i++ {
			p.Bind("float").Invoke()
		}
	})
	s.Run(100)
	if len(recs) != 3 {
		t.Fatalf("completed %d, want 3", len(recs))
	}
	for i, r := range recs {
		if r.Breakdown.ColdStart != 0 {
			t.Errorf("query %d cold-started after prewarm", i)
		}
	}
}

func TestPrewarmRespectsNMax(t *testing.T) {
	s, p := newPlatform(6)
	p.Register(workload.Float(), nil, WithNMax(2))
	var started int
	s.At(1, func() { started = p.Prewarm("float", 10, nil) })
	s.Run(50)
	if started != 2 {
		t.Errorf("prewarm started %d, want nMax=2", started)
	}
	if p.fns["float"].containers != 2 {
		t.Errorf("containers = %d", p.fns["float"].containers)
	}
}

func TestQueueWhenAtNMax(t *testing.T) {
	s, p := newPlatform(7)
	var recs []metrics.QueryRecord
	p.Register(workload.Float(), func(r metrics.QueryRecord) { recs = append(recs, r) }, WithNMax(1))
	s.At(1, func() {
		p.Bind("float").Invoke()
		p.Bind("float").Invoke()
		p.Bind("float").Invoke()
	})
	s.At(5, func() {
		if p.fns["float"].containers != 1 {
			t.Errorf("containers = %d mid-burst, want 1 (nMax)", p.fns["float"].containers)
		}
	})
	s.Run(200)
	if len(recs) != 3 {
		t.Fatalf("completed %d, want 3", len(recs))
	}
	// The 2nd and 3rd must have queued behind the single container.
	if recs[1].Breakdown.Queue <= 0 || recs[2].Breakdown.Queue <= recs[1].Breakdown.Queue {
		t.Errorf("queue times not increasing: %v then %v",
			recs[1].Breakdown.Queue, recs[2].Breakdown.Queue)
	}
}

func TestContentionSlowsSensitiveService(t *testing.T) {
	// Run float alone vs float beside a heavy CPU hog; the hog must
	// inflate float's exec time.
	soloExec := func(seed uint64, withHog bool) float64 {
		s, p := newPlatform(seed)
		var execs []float64
		p.Register(workload.Float(), func(r metrics.QueryRecord) {
			execs = append(execs, r.Breakdown.Exec)
		})
		if withHog {
			hog := workload.Matmul()
			hog.Name = "hog"
			hog.Demand.CPU = 1.0
			p.Register(hog, nil, WithNMax(200))
			// 35 concurrent hog queries ≈ 35/40 CPU pressure.
			g := arrival.New(s, trace.Constant{QPS: 140}, func(sim.Time) { p.Bind("hog").Invoke() })
			g.Start()
		}
		gen := arrival.New(s, trace.Constant{QPS: 2}, func(sim.Time) { p.Bind("float").Invoke() })
		gen.Start()
		s.Run(600)
		sum := 0.0
		for _, e := range execs {
			sum += e
		}
		return sum / float64(len(execs))
	}
	alone := soloExec(8, false)
	contended := soloExec(8, true)
	if contended < alone*1.15 {
		t.Errorf("exec alone %v vs contended %v: CPU hog had <15%% effect", alone, contended)
	}
}

func TestInsensitiveServiceUnaffectedByWrongResource(t *testing.T) {
	// A pure-CPU service must not slow down under heavy *network*
	// pressure (§II-D's key observation).
	mean := func(seed uint64, withNetHog bool) float64 {
		s, p := newPlatform(seed)
		var execs []float64
		prof := workload.Float()
		prof.Sensitivity.Net = 0 // strictly CPU sensitive
		p.Register(prof, func(r metrics.QueryRecord) { execs = append(execs, r.Breakdown.Exec) })
		if withNetHog {
			hog := workload.CloudStor()
			hog.Name = "nethog"
			hog.Demand.CPU = 0.05 // negligible CPU
			hog.Demand.NetMbs = 2000
			p.Register(hog, nil, WithNMax(200))
			g := arrival.New(s, trace.Constant{QPS: 40}, func(sim.Time) { p.Bind("nethog").Invoke() })
			g.Start()
		}
		gen := arrival.New(s, trace.Constant{QPS: 2}, func(sim.Time) { p.Bind(prof.Name).Invoke() })
		gen.Start()
		s.Run(400)
		sum := 0.0
		for _, e := range execs {
			sum += e
		}
		return sum / float64(len(execs))
	}
	alone := mean(9, false)
	hogged := mean(9, true)
	if math.Abs(hogged-alone)/alone > 0.05 {
		t.Errorf("CPU-only service moved %v -> %v under net pressure", alone, hogged)
	}
}

func TestEvictionOfOtherFunctionsIdleContainers(t *testing.T) {
	s := sim.New(10)
	cfg := DefaultConfig()
	cfg.Node.MemMB = 600 // room for ~2 containers (with 10% reserve: 540MB)
	cfg.MemReserve = 0.0
	p := New(s, cfg)
	a := workload.Float()
	a.Name = "a"
	b := workload.Float()
	b.Name = "b"
	p.Register(a, nil)
	p.Register(b, nil)
	s.At(1, func() { p.Bind("a").Invoke() })
	s.At(1, func() { p.Bind("a").Invoke() })  // two containers of a, both idle later
	s.At(30, func() { p.Bind("b").Invoke() }) // must evict one idle a-container
	s.Run(59)                                 // before idle timeout
	if evictions(p, 0, 0) != 1 {
		t.Errorf("evictions = %d, want 1", evictions(p, 0, 0))
	}
	if p.fns["a"].containers != 1 || p.fns["b"].containers != 1 {
		t.Errorf("containers a=%d b=%d, want 1/1", p.fns["a"].containers, p.fns["b"].containers)
	}
}

func TestMemoryAccounting(t *testing.T) {
	s, p := newPlatform(11)
	p.Register(workload.Float(), nil)
	s.At(1, func() { p.Bind("float").Invoke() })
	s.At(10, func() {
		if p.memMB != 256 {
			t.Errorf("pool mem = %v, want 256", p.memMB)
		}
		if p.AllocFor("float").MemMB != 256 {
			t.Errorf("fn alloc = %v", p.AllocFor("float"))
		}
	})
	s.Run(300)
	// After reclaim the integral stays but the allocation is zero.
	if p.AllocFor("float").MemMB != 0 {
		t.Errorf("fn alloc after reclaim = %v", p.AllocFor("float"))
	}
	if p.UsageFor("float").MemMB <= 0 {
		t.Error("usage integral empty")
	}
}

func TestUsageCPUOnlyWhileBusy(t *testing.T) {
	s, p := newPlatform(12)
	p.Register(workload.Float(), nil)
	s.At(1, func() { p.Bind("float").Invoke() })
	s.Run(300)
	u := p.UsageFor("float")
	// One query: CPU-seconds ≈ demand.CPU × busy duration (~0.12s).
	if u.CPU < 0.05 || u.CPU > 0.5 {
		t.Errorf("CPU usage integral = %v core-s, want ~0.12", u.CPU)
	}
}

func TestThroughputUnderSteadyLoad(t *testing.T) {
	s, p := newPlatform(13)
	var n int
	p.Register(workload.Float(), func(metrics.QueryRecord) { n++ })
	g := arrival.New(s, trace.Constant{QPS: 20}, func(sim.Time) { p.Bind("float").Invoke() })
	g.Start()
	s.Run(500)
	want := 20.0 * 500
	if math.Abs(float64(n)-want)/want > 0.05 {
		t.Errorf("completed %d, want ~%v", n, want)
	}
	if p.queued > 10 {
		t.Errorf("queue backlog %d at moderate load", p.queued)
	}
}

func TestReleaseIdle(t *testing.T) {
	s, p := newPlatform(14)
	p.Register(workload.Float(), nil)
	s.At(1, func() { p.Prewarm("float", 4, nil) })
	s.At(30, func() {
		if released := p.ReleaseIdle("float"); released != 4 {
			t.Errorf("released %d, want 4", released)
		}
		if p.fns["float"].containers != 0 {
			t.Errorf("containers = %d after release", p.fns["float"].containers)
		}
	})
	s.Run(40)
}

func TestPressureReflectsRunningBodies(t *testing.T) {
	s, p := newPlatform(15)
	prof := workload.Float()
	prof.ExecTime = 20 // long body so we can observe mid-flight
	prof.QoSTarget = 60
	p.Register(prof, nil, WithNMax(100))
	s.At(1, func() {
		for i := 0; i < 8; i++ {
			p.Bind("float").Invoke()
		}
	})
	s.At(10, func() {
		// 8 bodies × 1 core / 40 cores = 0.2 pressure.
		if pr := p.currentPressure(); math.Abs(pr.CPU-0.2) > 0.01 {
			t.Errorf("CPU pressure = %v, want 0.2", pr.CPU)
		}
	})
	s.Run(60)
	if pr := p.currentPressure(); pr.CPU != 0 {
		t.Errorf("pressure after completion = %v, want 0", pr.CPU)
	}
}

// TestSharedPressureFreezesSlowdownInput pins the shared-pressure mode:
// once installed, the platform applies the external pressure regardless
// of its own demand, until the next install.
func TestSharedPressureFreezesSlowdownInput(t *testing.T) {
	s := sim.New(1)
	p := New(s, DefaultConfig())
	if got := p.currentPressure(); got != (contention.Pressure{}) {
		t.Fatalf("idle platform pressure = %+v, want zero", got)
	}
	want := contention.Pressure{CPU: 0.25, IO: 0.5, Net: 0.125}
	p.SetSharedPressure(want)
	if got := p.currentPressure(); got != want {
		t.Fatalf("shared pressure = %+v, want %+v", got, want)
	}
	// Self-derived demand no longer feeds the reading.
	p.InjectDemand(DefaultConfig().Node.Capacity().Scale(0.5))
	if got := p.currentPressure(); got != want {
		t.Fatalf("pressure after demand injection = %+v, want frozen %+v", got, want)
	}
	next := contention.Pressure{CPU: 0.75}
	p.SetSharedPressure(next)
	if got := p.currentPressure(); got != next {
		t.Fatalf("refreshed shared pressure = %+v, want %+v", got, next)
	}
}

// TestUnknownFunctionPanics binds a function that was never registered:
// the wiring, not the first query, must panic.
func TestUnknownFunctionPanics(t *testing.T) {
	_, p := newPlatform(16)
	p.Register(workload.Float(), nil)
	defer func() {
		if recover() == nil {
			t.Error("Bind of unknown function did not panic")
		}
	}()
	p.Bind("ghost")
}

func TestDuplicateRegisterPanics(t *testing.T) {
	_, p := newPlatform(17)
	p.Register(workload.Float(), nil)
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	p.Register(workload.Float(), nil)
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []float64 {
		s, p := newPlatform(99)
		var lats []float64
		p.Register(workload.DD(), func(r metrics.QueryRecord) { lats = append(lats, r.Latency()) })
		g := arrival.New(s, trace.Constant{QPS: 10}, func(sim.Time) { p.Bind("dd").Invoke() })
		g.Start()
		s.Run(200)
		return lats
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("latency %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestZeroAllocSampleColdStart asserts the cold-start sampler is pure
// arithmetic at invocation time: the lognormal (mu, sigma) pair is fixed
// at New, so each sample is one RNG draw.
//
//amoeba:alloctest serverless.Platform.sampleColdStart
func TestZeroAllocSampleColdStart(t *testing.T) {
	p := New(sim.New(9), DefaultConfig())
	allocs := testing.AllocsPerRun(1000, func() {
		if p.sampleColdStart() <= 0 {
			t.Fatal("non-positive cold-start sample")
		}
	})
	if allocs != 0 {
		t.Errorf("sampleColdStart allocates %.2f objects per call, want 0", allocs)
	}
}

// TestZeroAllocWarmCycle asserts a warm Invoke→finish cycle allocates
// nothing in steady state: the activation is recycled, the container's
// finish callback is prebuilt, and going idle reserves a stamp and arms
// the function's reclaim deadline without a closure.
//
//amoeba:alloctest serverless.Invoker.Invoke serverless.Platform.armDeadline serverless.Platform.currentPressure
//amoeba:alloctest sim.Simulator.Reserve sim.Simulator.AtStamp sim.EventHandle.Cancel
func TestZeroAllocWarmCycle(t *testing.T) {
	// With one container every reuse takes the deadline's container;
	// with three, two of every three reuses leave the deadline alone.
	for _, warm := range []int{1, 3} {
		s, p := newPlatform(21)
		done := 0
		p.Register(workload.Float(), func(metrics.QueryRecord) { done++ })
		p.Prewarm("float", warm, nil)
		s.Run(10)
		float := p.Bind("float")
		cycle := func() { // reuses every container once, so none expires
			for i := 0; i < warm; i++ {
				float.Invoke()
			}
			s.Run(s.Now() + 1)
		}
		for i := 0; i < 64; i++ { // warm the slab, heap and free lists
			cycle()
		}
		if p.nextID != warm || done != 64*warm {
			t.Fatalf("warm=%d: warm-up started %d containers, %d completions", warm, p.nextID, done)
		}
		if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
			t.Errorf("warm=%d: %d warm Invoke→finish cycles allocate %.2f objects, want 0", warm, warm, allocs)
		}
	}
}

// TestZeroAllocWarmCycleObserved is the warm cycle with the telemetry
// an observed run carries: a tracer, and a bus with a JSONL writer and
// a metrics sink. The platform lends one reused QueryComplete and the
// tracer one reused PhaseSpan per query, and the writer copies them
// into recycled batches, so the cycle still allocates nothing once
// every batch has grown.
//
//amoeba:alloctest obs.Bus.Emit obs.JSONLWriter.Consume obs.MetricsSink.Consume
//amoeba:alloctest obs.Tracer.StartQuery obs.Tracer.Begin obs.Tracer.End
func TestZeroAllocWarmCycleObserved(t *testing.T) {
	s, p := newPlatform(21)
	bus := obs.NewBus()
	w := obs.NewJSONLWriter(io.Discard)
	bus.Attach(w)
	bus.Attach(obs.NewMetricsSink(obs.NewRegistry()))
	p.SetBus(bus)
	p.SetTracer(obs.NewTracer(bus))
	done := 0
	p.Register(workload.Float(), func(metrics.QueryRecord) { done++ })
	p.Prewarm("float", 1, nil)
	s.Run(10)
	float := p.Bind("float")
	cycle := func() {
		float.Invoke()
		s.Run(s.Now() + 1)
	}
	const warm = 4096 // two events per query: every batch fills several times
	for i := 0; i < warm; i++ {
		cycle()
	}
	if p.nextID != 1 || done != warm {
		t.Fatalf("warm-up started %d containers, %d completions", p.nextID, done)
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Errorf("observed warm Invoke→finish cycle allocates %.2f objects, want 0", allocs)
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	// The prewarm wrote a cold start and its phase span.
	if w.Count() != 2+2*(warm+1001) {
		t.Fatalf("wrote %d events, want 2 for the prewarm and 2 for each of %d queries", w.Count(), warm+1001)
	}
}

// TestEvictionVictimDeterministic pins the victim when two functions'
// idle containers tie on idleAt: deterministic cold starts warmed at the
// same instant go idle together, and the lowest container id must lose
// whichever function holds it. Run with -count=20 to catch an iteration
// order that leaks into the choice.
func TestEvictionVictimDeterministic(t *testing.T) {
	for _, order := range [][2]string{{"a", "b"}, {"b", "a"}} {
		first, second := order[0], order[1]
		s := sim.New(18)
		cfg := DefaultConfig()
		cfg.ColdStartCV = 0
		cfg.Node.MemMB = 512 // exactly two containers
		cfg.MemReserve = 0
		p := New(s, cfg)
		for _, name := range []string{"a", "b", "c"} {
			prof := workload.Float()
			prof.Name = name
			p.Register(prof, nil)
		}
		s.At(1, func() {
			p.Prewarm(first, 1, nil)  // container 1
			p.Prewarm(second, 1, nil) // container 2, idle at the same instant
		})
		s.At(10, func() { p.Bind("c").Invoke() })
		s.Run(20)
		if evictions(p, 0, 0) != 1 {
			t.Fatalf("evictions = %d, want 1", evictions(p, 0, 0))
		}
		if p.fns[first].containers != 0 || p.fns[second].containers != 1 {
			t.Errorf("prewarmed %s first: containers %s=%d %s=%d, want the lowest id (%s's) evicted",
				first, first, p.fns[first].containers, second, p.fns[second].containers, first)
		}
	}
}
