package core

import (
	"amoeba/internal/arrival"
	"amoeba/internal/autoscale"
	"amoeba/internal/controller"
	"amoeba/internal/engine"
	"amoeba/internal/iaas"
	"amoeba/internal/metrics"
	"amoeba/internal/monitor"
	"amoeba/internal/obs"
	"amoeba/internal/queueing"
	"amoeba/internal/serverless"
	"amoeba/internal/sim"
	"amoeba/internal/units"
	"amoeba/internal/workload"
)

// cell is one simulation: a simulator with its serverless pool, IaaS
// platform and contention monitor, and the bus and tracer they emit on.
// Run wires a whole scenario into one cell; RunSharded gives every
// managed service, background tenant and the monitor daemon a cell of
// its own (DESIGN.md §15). Both kernels wire through the same methods,
// so a variant is wired the same way on either.
//
// Wiring order is part of the outcome: the platform constructors,
// engine.New and arrival.New split the cell's RNG, and monitor.New
// registers its meter functions on the pool.
type cell struct {
	sc     *Scenario
	slCfg  serverless.Config
	sim    *sim.Simulator
	pool   *serverless.Platform
	vms    *iaas.Platform   // nil in tenant and daemon cells
	mon    *monitor.Monitor // nil for the baselines
	bus    *obs.Bus         // nil when the run is unobserved
	tracer *obs.Tracer

	services []managed            // in scenario order
	tenants  []*metrics.Collector // background tenants

	// Sharded kernel only: the telemetry namespace (also the canonical
	// merge rank) and the buffer drained at every epoch barrier.
	ns  int
	buf *obs.Buffer
}

// managed is one managed service wired into a cell.
type managed struct {
	prof workload.Profile
	coll *metrics.Collector
	eng  *engine.Engine // nil for the baselines
}

// newCell builds a cell with a fresh simulator and serverless pool.
func newCell(sc *Scenario, seed uint64) *cell {
	s := sim.New(seed)
	slCfg := serverless.DefaultConfig()
	return &cell{sc: sc, slCfg: slCfg, sim: s, pool: serverless.New(s, slCfg)}
}

// hybrid reports whether v runs Amoeba's hybrid engine and contention
// monitor: Amoeba and its NoM and NoP ablations.
func (v Variant) hybrid() bool {
	return v == VariantAmoeba || v == VariantAmoebaNoM || v == VariantAmoebaNoP
}

// monitorConfig is the contention monitor's configuration under v:
// Amoeba-NoM runs it with PCA calibration disabled.
func monitorConfig(v Variant) monitor.Config {
	cfg := monitor.DefaultConfig()
	cfg.UsePCA = v != VariantAmoebaNoM
	return cfg
}

// attach points the cell's pool, and everything wired into the cell
// later, at bus and tracer. Unobserved runs skip it, so every emission
// site stays on its zero-cost path.
func (c *cell) attach(bus *obs.Bus, tracer *obs.Tracer) {
	c.bus, c.tracer = bus, tracer
	c.pool.SetBus(bus)
	c.pool.SetTracer(tracer)
}

// addIaaS gives the cell its IaaS platform; tenant and daemon cells run
// none.
func (c *cell) addIaaS() {
	c.vms = iaas.New(c.sim)
	c.vms.SetBus(c.bus)
	c.vms.SetTracer(c.tracer)
}

// startMonitor runs the contention monitor's meters on the cell's pool.
func (c *cell) startMonitor() {
	c.mon = monitor.New(c.sim, c.pool, MeterCurves(c.slCfg), monitorConfig(c.sc.Variant))
	c.mon.SetBus(c.bus)
	c.mon.SetTracer(c.tracer)
	c.mon.Start()
}

// addTenant runs a background tenant on the pool. Tenants always run
// serverless (the paper's §VII-A setup) and are not Amoeba-managed, so
// the per-tenant share bound does not apply to them — give them room to
// breathe.
func (c *cell) addTenant(bg ServiceSpec) {
	coll := metrics.NewCollector(bg.Profile.Name, bg.Profile.QoSTarget)
	c.tenants = append(c.tenants, coll)
	c.pool.Register(bg.Profile, coll.Observe, serverless.WithNMax(64))
	inv := c.pool.Bind(bg.Profile.Name)
	arrival.New(c.sim, bg.Trace, func(sim.Time) { inv.Invoke() }).Start()
}

// allowedError is Eq. 8's e, the error fraction the engine's sample
// period tolerates.
const allowedError units.Fraction = 0.10

// addService wires one managed service under the scenario's variant and
// starts its arrivals. It panics if the controller or the engine's sample
// period cannot be built, which Scenario.Validate rules out.
func (c *cell) addService(svc ServiceSpec) {
	prof := svc.Profile
	m := managed{prof: prof}
	var onArrival func(sim.Time)
	switch c.sc.Variant {
	case VariantNameko:
		m.coll = metrics.NewCollector(prof.Name, prof.QoSTarget)
		c.vms.Deploy(prof, m.coll.Observe)
		inv := c.vms.Bind(prof.Name)
		onArrival = func(sim.Time) { inv.Invoke() }

	case VariantOpenWhisk:
		m.coll = metrics.NewCollector(prof.Name, prof.QoSTarget)
		c.pool.Register(prof, m.coll.Observe)
		inv := c.pool.Bind(prof.Name)
		onArrival = func(sim.Time) { inv.Invoke() }

	case VariantAutoscale:
		m.coll = metrics.NewCollector(prof.Name, prof.QoSTarget)
		c.vms.DeployWithVMs(prof, autoscale.MinVMs, m.coll.Observe)
		autoscale.New(c.sim, c.vms, prof, autoscale.DefaultConfig()).Start()
		inv := c.vms.Bind(prof.Name)
		onArrival = func(sim.Time) { inv.Invoke() }

	default: // the Amoeba variants
		// Register the primary function; the engine exists a moment
		// later, so the callbacks indirect through eng.
		var eng *engine.Engine
		c.pool.Register(prof, func(r metrics.QueryRecord) { eng.OnServerlessComplete(r) })
		c.vms.Deploy(prof, func(r metrics.QueryRecord) { eng.OnIaaSComplete(r) })

		pred, err := controller.NewPredictor(prof, SurfaceSet(prof, c.slCfg), c.pool.NMax(prof.Name), units.Fraction(0.95))
		if err != nil {
			panic(err) // scenario validation already vouched for these inputs
		}
		ctrl, err := controller.New(controller.DefaultConfig(), pred)
		if err != nil {
			panic(err) // DefaultConfig is always valid
		}
		engCfg := engine.DefaultConfig(c.slCfg.Node.Capacity())
		engCfg.SamplePeriod, err = queueing.SamplePeriod(
			c.slCfg.ColdStartMean, units.Seconds(prof.QoSTarget),
			units.Seconds(prof.ExecTime), allowedError, units.Seconds(10))
		if err != nil {
			panic(err) // scenario validation bounds the QoS target
		}
		engCfg.Prewarm = c.sc.Variant != VariantAmoebaNoP
		eng = engine.New(c.sim, c.pool, c.vms, prof, ctrl, c.mon, engCfg)
		eng.SetBus(c.bus)
		eng.SetTracer(c.tracer)
		ctrl.SetTracer(c.tracer)
		eng.Start()
		m.coll, m.eng = eng.Collector, eng
		onArrival = func(sim.Time) { eng.HandleQuery() }
	}
	arrival.New(c.sim, svc.Trace, onArrival).Start()
	c.services = append(c.services, m)
}

// harvest adds the cell's managed services, background tenants, meter
// cost and event count to res. Only a monitor that runs meters has a
// meter cost; a sharded replica's is zero.
func (c *cell) harvest(res *Result) {
	for _, m := range c.services {
		name := m.prof.Name
		sr := &ServiceResult{Profile: m.prof, Collector: m.coll, Timeline: &metrics.Timeline{}, FinalWeights: monitor.InitialWeights()}
		if c.sc.Variant == VariantOpenWhisk {
			sr.ServerlessUsage = c.pool.UsageFor(name)
		} else {
			sr.IaaSUsage = c.vms.UsageFor(name)
			sr.ConsumedCPUSeconds = c.vms.ConsumedCPUSeconds(name)
		}
		if eng := m.eng; eng != nil {
			sr.ServerlessUsage = c.pool.UsageFor(name).Add(c.pool.UsageFor(name + engine.ShadowSuffix))
			sr.Timeline = eng.Timeline
			sr.Decisions = eng.Controller().Decisions()
			sr.BlockedSwitches = eng.BlockedSwitches()
			sr.FinalWeights = c.mon.WeightsFor(name)
			sr.ViolationWindows = eng.Windowed.Windows(float64(c.sim.Now()))
		}
		res.Services[name] = sr
	}
	for _, coll := range c.tenants {
		res.Background[coll.Service] = coll
	}
	if c.mon != nil {
		res.MeterCPUSeconds += c.mon.MeterCPUSeconds()
	}
	res.Events += c.sim.Events()
}
