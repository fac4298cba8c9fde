package engine

import (
	"testing"

	"amoeba/internal/arrival"
	"amoeba/internal/controller"
	"amoeba/internal/iaas"
	"amoeba/internal/meters"
	"amoeba/internal/metrics"
	"amoeba/internal/monitor"
	"amoeba/internal/obs"
	"amoeba/internal/serverless"
	"amoeba/internal/sim"
	"amoeba/internal/surfaces"
	"amoeba/internal/trace"
	"amoeba/internal/workload"
)

// rig wires a minimal engine with synthetic curves/surfaces so tests can
// drive it without the profiling step.
type rig struct {
	sim  *sim.Simulator
	pool *serverless.Platform
	vms  *iaas.Platform
	mon  *monitor.Monitor
	ctrl *controller.Controller
	eng  *Engine
}

func flatCurves() [3]*meters.Curve {
	var out [3]*meters.Curve
	for _, m := range meters.All() {
		base := m.Profile.ExecTime + m.Profile.Overheads.Total()
		out[m.Index] = &meters.Curve{
			Meter:     m,
			Pressures: []float64{0, 0.5, 1.0},
			Latencies: []float64{base, base * 1.2, base * 1.6},
		}
	}
	return out
}

func flatSet(prof workload.Profile) *surfaces.Set {
	set := &surfaces.Set{Service: prof.Name}
	grid := []float64{0, 0.5, 1.0}
	loads := []float64{1, prof.PeakQPS}
	// Steep enough that near-saturation pressure pushes the body past a
	// tight QoS budget (the spike-response test depends on it).
	const slope = 0.8
	for r := 0; r < 3; r++ {
		lat := make([][]float64, len(grid))
		for i, p := range grid {
			lat[i] = []float64{prof.ExecTime * (1 + slope*p), prof.ExecTime * (1 + slope*p)}
		}
		set.Surfaces[r] = &surfaces.Surface{Service: prof.Name, Resource: r, Pressures: grid, Loads: loads, Lat: lat}
	}
	return set
}

// shadowCounter counts the shadow twin's completions among the pool's
// QueryComplete events.
type shadowCounter struct{ n int }

func (c *shadowCounter) Consume(ev obs.Event) {
	if q, ok := ev.(*obs.QueryComplete); ok && q.Service == "float"+ShadowSuffix {
		c.n++
	}
}

// countShadows attaches a shadowCounter to the rig's pool.
func (r *rig) countShadows() *shadowCounter {
	c := &shadowCounter{}
	bus := obs.NewBus()
	bus.Attach(c)
	r.pool.SetBus(bus)
	return c
}

func newRig(t *testing.T, seed uint64, mutate func(*Config)) *rig {
	t.Helper()
	return wireRig(t, seed, mutate, true)
}

// wireRig wires the rig; start runs the monitor's meters and the
// engine's sample loop.
func wireRig(t *testing.T, seed uint64, mutate func(*Config), start bool) *rig {
	t.Helper()
	s := sim.New(seed)
	slCfg := serverless.DefaultConfig()
	pool := serverless.New(s, slCfg)
	vms := iaas.New(s, iaas.DefaultConfig())
	mon := monitor.New(s, pool, flatCurves(), monitor.DefaultConfig())
	if start {
		mon.Start()
	}

	prof := workload.Float()
	r := &rig{sim: s, pool: pool, vms: vms, mon: mon}
	pool.Register(prof, func(rec metrics.QueryRecord) { r.eng.OnServerlessComplete(rec) })
	vms.Deploy(prof, func(rec metrics.QueryRecord) { r.eng.OnIaaSComplete(rec) })

	pred, err := controller.NewPredictor(prof, flatSet(prof), pool.NMax(prof.Name), 0.95)
	if err != nil {
		t.Fatal(err)
	}
	r.ctrl, err = controller.New(controller.DefaultConfig(), pred)
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig(slCfg.Node.Capacity())
	cfg.SamplePeriod = 10
	if mutate != nil {
		mutate(&cfg)
	}
	r.eng = New(s, pool, vms, prof, r.ctrl, mon, cfg)
	if start {
		r.eng.Start()
	}
	return r
}

func TestRoutesToIaaSInitially(t *testing.T) {
	r := newRig(t, 1, nil)
	r.sim.At(1, func() { r.eng.HandleQuery() })
	r.sim.Run(30)
	if r.eng.Collector.BackendCount(metrics.BackendIaaS) != 1 {
		t.Error("query not routed to IaaS in initial mode")
	}
}

func TestSwitchInPrewarmsBeforeFlipping(t *testing.T) {
	r := newRig(t, 2, nil)
	gen := arrival.New(r.sim, trace.Constant{QPS: 4}, func(sim.Time) { r.eng.HandleQuery() })
	gen.Start()
	r.sim.Run(600)
	if r.eng.mode != metrics.BackendServerless {
		t.Fatalf("engine never switched to serverless at low load (mode %v)", r.eng.mode)
	}
	if r.eng.Timeline.SwitchCount(metrics.BackendServerless) == 0 {
		t.Fatal("switch not recorded on timeline")
	}
	// Post-switch queries must not cold start (prewarm absorbed them).
	// Some IaaS records drain through; inspect the serverless violation
	// share instead: with prewarm, no cold start means p95 stays tight.
	if vf := r.eng.Collector.ViolationFraction(); vf > 0.05 {
		t.Errorf("violation fraction %v after prewarmned switch", vf)
	}
	// IaaS side released after the drain.
	if alloc := r.vms.AllocFor("float"); !alloc.IsZero() {
		t.Errorf("IaaS allocation %v after switch to serverless", alloc)
	}
}

func TestNoPrewarmVariantColdStarts(t *testing.T) {
	cold := func(prewarm bool, seed uint64) float64 {
		r := newRig(t, seed, func(c *Config) { c.Prewarm = prewarm })
		gen := arrival.New(r.sim, trace.Constant{QPS: 4}, func(sim.Time) { r.eng.HandleQuery() })
		gen.Start()
		r.sim.Run(600)
		if r.eng.mode != metrics.BackendServerless {
			t.Fatalf("never switched (prewarm=%v)", prewarm)
		}
		return r.eng.Collector.ViolationFraction()
	}
	with := cold(true, 3)
	without := cold(false, 3)
	if without <= with {
		t.Errorf("NoP violations %v not above prewarm violations %v", without, with)
	}
}

func TestSwitchBackToIaaSOnLoadRise(t *testing.T) {
	r := newRig(t, 4, func(c *Config) { c.MinDwell = 30 })
	// Low load first, then a surge beyond the admissible load.
	gen := arrival.New(r.sim, trace.Step{Before: 4, After: 60, At: 600}, func(sim.Time) { r.eng.HandleQuery() })
	gen.Start()
	r.sim.Run(1400)
	if r.eng.Timeline.SwitchCount(metrics.BackendServerless) == 0 {
		t.Fatal("never switched in")
	}
	if r.eng.Timeline.SwitchCount(metrics.BackendIaaS) == 0 {
		t.Fatal("never switched back out on the surge")
	}
	if r.eng.mode != metrics.BackendIaaS {
		t.Errorf("mode %v after surge, want iaas", r.eng.mode)
	}
	// Serverless containers released after the drain.
	if mem := r.pool.AllocFor("float").MemMB; mem != 0 {
		t.Errorf("%v MB of serverless containers linger after switch-out", mem)
	}
}

func TestShadowQueriesFlowDuringIaaSMode(t *testing.T) {
	r := newRig(t, 5, func(c *Config) {
		c.ShadowFraction = 0.2
		c.MinDwell = 1e9 // pin to IaaS: isolate the shadow path
	})
	// Keep the controller in IaaS by setting a load above the margin:
	// feed a high constant load.
	shadows := r.countShadows()
	gen := arrival.New(r.sim, trace.Constant{QPS: 50}, func(sim.Time) { r.eng.HandleQuery() })
	gen.Start()
	r.sim.Run(120)
	if shadows.n == 0 {
		t.Error("no shadow queries completed during IaaS mode")
	}
	// Shadow queries never pollute the user-facing collector.
	total := r.eng.Collector.BackendCount(metrics.BackendServerless)
	if total != 0 {
		t.Errorf("%d serverless records in the user collector while IaaS-pinned", total)
	}
	// Shadow rate is capped: at most ShadowMaxQPS × horizon.
	if float64(shadows.n) > 1.0*120*1.2 {
		t.Errorf("shadow count %d exceeds the cap", shadows.n)
	}
}

func TestMinDwellPreventsFlapping(t *testing.T) {
	r := newRig(t, 6, func(c *Config) { c.MinDwell = 3600 })
	gen := arrival.New(r.sim, trace.Constant{QPS: 4}, func(sim.Time) { r.eng.HandleQuery() })
	gen.Start()
	r.sim.Run(1200)
	switches := len(r.eng.Timeline.Switches)
	if switches > 1 {
		t.Errorf("%d switches within one dwell window", switches)
	}
}

// TestZeroAllocHandleQuery routes queries in both modes, each run to
// completion, with the shadow mirror taking every IaaS-mode query. The
// routes were bound when the engine was wired, so routing builds no
// name and allocates nothing. The engine's sample loop is not started:
// its ticks are not the routing path.
//
//amoeba:alloctest engine.Engine.HandleQuery engine.Engine.maybeShadow
func TestZeroAllocHandleQuery(t *testing.T) {
	r := wireRig(t, 8, func(c *Config) { c.ShadowMaxQPS = 1e9 }, false)
	e := r.eng
	e.cfg.ShadowFraction = 1 // every IaaS-mode query mirrors (Validate caps a configured fraction at 0.5)
	shadows := r.countShadows()
	cycle := func() {
		e.HandleQuery()
		r.sim.Run(r.sim.Now() + 1)
	}
	const warm = 64 // cold starts, slabs and free lists
	for _, mode := range []metrics.Backend{metrics.BackendIaaS, metrics.BackendServerless} {
		e.mode = mode
		for i := 0; i < warm; i++ {
			cycle()
		}
		if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
			t.Errorf("%v mode: routing a query allocates %.2f objects, want 0", mode, allocs)
		}
	}
	const routed = warm + 1001 // AllocsPerRun adds one warm-up run
	for _, b := range []metrics.Backend{metrics.BackendIaaS, metrics.BackendServerless} {
		if n := e.Collector.BackendCount(b); n != routed {
			t.Errorf("%d queries completed on %v, want %d", n, b, routed)
		}
	}
	if shadows.n != routed {
		t.Errorf("%d shadow queries completed, want one per IaaS-mode query (%d)", shadows.n, routed)
	}
}

func TestConfigValidation(t *testing.T) {
	cap := serverless.DefaultConfig().Node.Capacity()
	good := DefaultConfig(cap)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := good
	bad.ShadowFraction = 0.9
	if bad.Validate() == nil {
		t.Error("huge shadow fraction accepted")
	}
	bad = good
	bad.SamplePeriod = 0
	if bad.Validate() == nil {
		t.Error("zero sample period accepted")
	}
	bad = good
	bad.Capacity.CPU = 0
	if bad.Validate() == nil {
		t.Error("missing capacity accepted")
	}
}

func TestTimelineSnapshotsAccumulate(t *testing.T) {
	r := newRig(t, 7, nil)
	gen := arrival.New(r.sim, trace.Constant{QPS: 2}, func(sim.Time) { r.eng.HandleQuery() })
	gen.Start()
	r.sim.Run(200)
	if len(r.eng.Timeline.Snapshots) < 15 {
		t.Errorf("only %d snapshots over 200s at 10s period", len(r.eng.Timeline.Snapshots))
	}
	for _, s := range r.eng.Timeline.Snapshots {
		if s.LoadQPS < 0 {
			t.Errorf("negative load in snapshot: %+v", s)
		}
	}
}
