package engine

import (
	"testing"

	"amoeba/internal/arrival"
	"amoeba/internal/contention"
	"amoeba/internal/controller"
	"amoeba/internal/iaas"
	"amoeba/internal/meters"
	"amoeba/internal/metrics"
	"amoeba/internal/monitor"
	"amoeba/internal/resources"
	"amoeba/internal/serverless"
	"amoeba/internal/sim"
	"amoeba/internal/surfaces"
	"amoeba/internal/trace"
	"amoeba/internal/workload"
)

// TestSwitchOutOnContentionSpike is the paper's core claim in miniature:
// "there is not a fixed load at which to switch" (§II-D). The service's
// own load never changes; only the ambient contention does — and the
// engine must still retreat to IaaS when the pool becomes hostile, then
// return once it clears.
func TestSwitchOutOnContentionSpike(t *testing.T) {
	r := newRig(t, 11, func(c *Config) { c.MinDwell = 30 })
	gen := arrival.New(r.sim, trace.Constant{QPS: 6}, func(sim.Time) { r.eng.HandleQuery() })
	gen.Start()

	// Crush the pool's CPU from t=600 to t=1500: pressure ~0.95 makes the
	// flat test curves report heavy contention and the surfaces predict a
	// μ too small for even 6 QPS under the tight float QoS.
	cap := serverless.DefaultConfig().Node.Capacity()
	spike := resources.Vector{CPU: 0.95 * cap.CPU}
	r.sim.At(600, func() { r.pool.InjectDemand(spike) })
	r.sim.At(1500, func() { r.pool.InjectDemand(spike.Scale(-1)) })

	r.sim.Run(2400)

	var sawOut, sawReturn bool
	for _, sw := range r.eng.Timeline.Switches {
		if sw.To == metrics.BackendIaaS && sw.At > 600 && sw.At < 1500 {
			sawOut = true
		}
		if sawOut && sw.To == metrics.BackendServerless && sw.At > 1500 {
			sawReturn = true
		}
	}
	if !sawOut {
		t.Fatalf("no retreat to IaaS during the contention spike; switches: %+v",
			r.eng.Timeline.Switches)
	}
	if !sawReturn {
		t.Errorf("no return to serverless after the spike cleared; switches: %+v",
			r.eng.Timeline.Switches)
	}
}

// TestSafetyVetoBlocksSwitchIn: a switch-in whose added demand would push
// the pool past the safety bound must be vetoed and counted, leaving the
// service on IaaS (§III: switching must not break co-located services).
// The service here is contention-INsensitive (flat surfaces) — its own
// QoS would be fine on the pool — but demand-heavy, so the veto is the
// only thing standing between it and the co-tenants.
func TestSafetyVetoBlocksSwitchIn(t *testing.T) {
	s := sim.New(12)
	slCfg := serverless.DefaultConfig()
	pool := serverless.New(s, slCfg)
	vms := iaas.New(s, iaas.DefaultConfig())
	mon := monitor.New(s, pool, modelCurves(slCfg), monitor.DefaultConfig())
	mon.Start()

	prof := workload.Float()
	prof.Name = "bulky"
	prof.Demand.CPU = 8 // a heavy parallel kernel per query
	prof.Sensitivity = contention.Sensitivity{}

	var eng *Engine
	pool.Register(prof, func(rec metrics.QueryRecord) { eng.OnServerlessComplete(rec) })
	vms.Deploy(prof, func(rec metrics.QueryRecord) { eng.OnIaaSComplete(rec) })

	// Flat (slope 0) surfaces: the pool never hurts this service.
	set := &surfaces.Set{Service: prof.Name}
	for r := 0; r < 3; r++ {
		set.Surfaces[r] = &surfaces.Surface{
			Service: prof.Name, Resource: r,
			Pressures: []float64{0, 1},
			Loads:     []float64{1, prof.PeakQPS},
			Lat: [][]float64{
				{prof.ExecTime, prof.ExecTime},
				{prof.ExecTime, prof.ExecTime},
			},
		}
	}
	pred, err := controller.NewPredictor(prof, set, pool.NMax(prof.Name), 0.95)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := controller.New(controller.DefaultConfig(), pred)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(slCfg.Node.Capacity())
	cfg.SamplePeriod = 10
	eng = New(s, pool, vms, prof, ctrl, mon, cfg)
	eng.Start()

	// Ambient CPU at 0.60: harmless alone, but this service's own demand
	// (15 QPS × 0.12 s × 8 cores ≈ 14.4 cores ≈ 0.36) lands the post-
	// switch pressure at ~0.96, over the 0.90 bound.
	cap := slCfg.Node.Capacity()
	pool.InjectDemand(resources.Vector{CPU: 0.60 * cap.CPU})

	gen := arrival.New(s, trace.Constant{QPS: 15}, func(sim.Time) { eng.HandleQuery() })
	gen.Start()
	s.Run(900)

	if eng.mode != metrics.BackendIaaS {
		t.Fatalf("switched into an almost-saturated pool (mode %v)", eng.mode)
	}
	if eng.BlockedSwitches() == 0 {
		t.Error("no blocked switch-ins recorded despite the veto pressure")
	}
}

// modelCurves builds meter curves that exactly match the ground truth of
// a pool built from cfg, so the monitor's estimate is unbiased
// (profiling does the same thing empirically).
func modelCurves(cfg serverless.Config) [3]*meters.Curve {
	model := contention.NewModel(cfg.Node.Capacity())
	var out [3]*meters.Curve
	for _, mt := range meters.All() {
		grid := []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2}
		lats := make([]float64, len(grid))
		for i, pr := range grid {
			var cp contention.Pressure
			switch mt.Index {
			case 0:
				cp.CPU = pr
			case 1:
				cp.IO = pr
			case 2:
				cp.Net = pr
			}
			slow := model.Slowdown(cp, mt.Profile.Sensitivity)
			lats[i] = mt.Profile.ExecTime*slow + mt.Profile.Overheads.Total()
		}
		out[mt.Index] = &meters.Curve{Meter: mt, Pressures: grid, Latencies: lats}
	}
	return out
}
