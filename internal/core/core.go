// Package core assembles the Amoeba runtime (§III): per managed service,
// a contention-aware deployment controller, a hybrid execution engine, and
// one shared multi-resource contention monitor, all running against the
// simulated serverless pool and IaaS platform. It also provides the
// evaluation's baselines and ablations:
//
//	VariantAmoeba      — the full system
//	VariantAmoebaNoM   — PCA calibration disabled (§VII-C)
//	VariantAmoebaNoP   — container prewarm disabled (§VII-D)
//	VariantNameko      — pure IaaS deployment (the paper's Nameko)
//	VariantOpenWhisk   — pure serverless deployment
package core

import (
	"fmt"

	"amoeba/internal/arrival"
	"amoeba/internal/autoscale"
	"amoeba/internal/controller"
	"amoeba/internal/engine"
	"amoeba/internal/iaas"
	"amoeba/internal/metrics"
	"amoeba/internal/monitor"
	"amoeba/internal/obs"
	"amoeba/internal/queueing"
	"amoeba/internal/resources"
	"amoeba/internal/serverless"
	"amoeba/internal/sim"
	"amoeba/internal/trace"
	"amoeba/internal/units"
	"amoeba/internal/workload"
)

// Variant selects the system under evaluation.
type Variant int

const (
	VariantAmoeba Variant = iota
	VariantAmoebaNoM
	VariantAmoebaNoP
	VariantNameko
	VariantOpenWhisk
	// VariantAutoscale is an extension baseline beyond the paper: a
	// Kubernetes-style horizontal VM autoscaler on the IaaS platform
	// (related work [25]) — elastic like Amoeba, but it pays VM boot
	// delay on the latency path when the load ramps.
	VariantAutoscale
)

var variantNames = map[Variant]string{
	VariantAmoeba:    "amoeba",
	VariantAmoebaNoM: "amoeba-nom",
	VariantAmoebaNoP: "amoeba-nop",
	VariantNameko:    "nameko",
	VariantOpenWhisk: "openwhisk",
	VariantAutoscale: "autoscale",
}

func (v Variant) String() string {
	if s, ok := variantNames[v]; ok {
		return s
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// ServiceSpec is one service under study with its load pattern.
type ServiceSpec struct {
	Profile workload.Profile
	Trace   trace.Trace
}

// Scenario describes one evaluation run.
type Scenario struct {
	Variant    Variant
	Services   []ServiceSpec // managed services (the benchmarks)
	Background []ServiceSpec // co-tenants pinned to the serverless pool
	Duration   units.Seconds // virtual seconds
	Seed       uint64

	// Serverless overrides the pool config (nil = DefaultConfig).
	Serverless *serverless.Config
	// IaaS overrides the VM platform config (nil = DefaultConfig).
	IaaS *iaas.Config
	// AllowedError is Eq. 8's e, deciding the sample period.
	AllowedError units.Fraction
	// SnapshotPeriod densifies the timeline for Fig. 12/13 (0 = engine
	// sample period only).
	SnapshotPeriod units.Seconds
	// Bus is the telemetry bus events are emitted on (nil = unobserved;
	// every emission site stays on its zero-cost path). Attach sinks
	// before Run — the bus is wired into the platforms, the monitor, and
	// every engine.
	Bus *obs.Bus
}

// Validate reports scenario errors.
func (sc *Scenario) Validate() error {
	if len(sc.Services) == 0 {
		return fmt.Errorf("core: scenario with no services")
	}
	if sc.Duration <= 0 {
		return fmt.Errorf("core: non-positive duration")
	}
	seen := map[string]bool{}
	for _, group := range [2][]ServiceSpec{sc.Services, sc.Background} {
		for _, s := range group {
			if err := s.Profile.Validate(); err != nil {
				return err
			}
			if s.Trace == nil {
				return fmt.Errorf("core: service %s has no trace", s.Profile.Name)
			}
			if seen[s.Profile.Name] {
				return fmt.Errorf("core: duplicate service name %q", s.Profile.Name)
			}
			seen[s.Profile.Name] = true
		}
	}
	return nil
}

func (sc *Scenario) serverlessConfig() serverless.Config {
	if sc.Serverless != nil {
		return *sc.Serverless
	}
	return serverless.DefaultConfig()
}

func (sc *Scenario) iaasConfig() iaas.Config {
	if sc.IaaS != nil {
		return *sc.IaaS
	}
	return iaas.DefaultConfig()
}

func (sc *Scenario) allowedError() units.Fraction {
	if sc.AllowedError > 0 {
		return sc.AllowedError
	}
	return 0.10
}

// ServiceResult is the outcome for one managed service.
type ServiceResult struct {
	Profile   workload.Profile
	Collector *metrics.Collector
	Timeline  *metrics.Timeline

	// Usage integrals over the run (resource·seconds).
	IaaSUsage       resources.Vector
	ServerlessUsage resources.Vector

	// ConsumedCPUSeconds is the CPU actually burned on the IaaS side
	// (Fig. 2's numerator).
	ConsumedCPUSeconds float64

	Decisions       []controller.Decision
	BlockedSwitches int
	// FinalWeights is the Eq. 6 weight vector at the end of the run
	// (w₀ for non-Amoeba variants and Amoeba-NoM).
	FinalWeights monitor.Weights
	// ViolationWindows is the 60s-windowed violation-rate series (Amoeba
	// variants only; nil for the baselines).
	ViolationWindows []metrics.ViolationWindow
}

// TotalUsage returns the combined resource-time integral.
func (r *ServiceResult) TotalUsage() resources.Vector {
	return r.IaaSUsage.Add(r.ServerlessUsage)
}

// Result is the outcome of one scenario run.
type Result struct {
	Variant    Variant
	Duration   units.Seconds
	Services   map[string]*ServiceResult
	Background map[string]*metrics.Collector
	// MeterCPUSeconds is the monitor probes' CPU cost (§VII-E).
	MeterCPUSeconds float64
	// Events is the number of kernel events fired. Arrival generators
	// decide thinning candidates ahead of the clock (DESIGN.md §18), so
	// a rejected candidate fires no event unless it was queued undecided:
	// past a Run horizon, or after a long run of rejections.
	Events uint64
}

// Run executes the scenario to completion. It panics if the scenario
// fails validation: experiment drivers construct scenarios from
// already-validated configs, and a malformed one aborting the run is the
// correct failure mode mid-suite.
func Run(sc Scenario) *Result {
	if err := sc.Validate(); err != nil {
		panic(err)
	}
	s := sim.New(sc.Seed ^ 0x5eed)
	slCfg := sc.serverlessConfig()
	pool := serverless.New(s, slCfg)
	vms := iaas.New(s, sc.iaasConfig())
	// One tracer per run: trace/span IDs are dense counters, so two runs
	// of the same seed produce byte-identical trace streams even when a
	// sweep executes runs in parallel.
	var tracer *obs.Tracer
	if sc.Bus != nil {
		tracer = obs.NewTracer(sc.Bus)
		pool.SetBus(sc.Bus)
		pool.SetTracer(tracer)
		vms.SetBus(sc.Bus)
		vms.SetTracer(tracer)
	}

	res := &Result{
		Variant:    sc.Variant,
		Duration:   sc.Duration,
		Services:   make(map[string]*ServiceResult),
		Background: make(map[string]*metrics.Collector),
	}

	// Background tenants always run serverless (the paper's §VII-A
	// setup). They are not Amoeba-managed, so the per-tenant share bound
	// does not apply to them — give them room to breathe.
	for _, bg := range sc.Background {
		coll := metrics.NewCollector(bg.Profile.Name, bg.Profile.QoSTarget)
		res.Background[bg.Profile.Name] = coll
		pool.Register(bg.Profile, coll.Observe, serverless.WithNMax(64))
		gen := arrival.New(s, bg.Trace, invoker(pool, bg.Profile.Name))
		gen.Start()
	}

	var mon *monitor.Monitor
	amoebaLike := sc.Variant == VariantAmoeba || sc.Variant == VariantAmoebaNoM || sc.Variant == VariantAmoebaNoP
	if amoebaLike {
		monCfg := monitor.DefaultConfig()
		monCfg.UsePCA = sc.Variant != VariantAmoebaNoM
		mon = monitor.New(s, pool, MeterCurves(slCfg), monCfg)
		if sc.Bus != nil {
			mon.SetBus(sc.Bus)
			mon.SetTracer(tracer)
		}
		mon.Start()
	}

	type wiring struct {
		eng  *engine.Engine
		coll *metrics.Collector
	}
	wired := map[string]*wiring{}

	for _, svc := range sc.Services {
		prof := svc.Profile
		switch sc.Variant {
		case VariantNameko:
			coll := metrics.NewCollector(prof.Name, prof.QoSTarget)
			wired[prof.Name] = &wiring{coll: coll}
			vms.Deploy(prof, coll.Observe)
			gen := arrival.New(s, svc.Trace, invoker(vms, prof.Name))
			gen.Start()

		case VariantOpenWhisk:
			coll := metrics.NewCollector(prof.Name, prof.QoSTarget)
			wired[prof.Name] = &wiring{coll: coll}
			pool.Register(prof, coll.Observe)
			gen := arrival.New(s, svc.Trace, invoker(pool, prof.Name))
			gen.Start()

		case VariantAutoscale:
			coll := metrics.NewCollector(prof.Name, prof.QoSTarget)
			wired[prof.Name] = &wiring{coll: coll}
			asCfg := autoscale.DefaultConfig()
			vms.DeployWithVMs(prof, asCfg.MinVMs, coll.Observe)
			scaler := autoscale.New(s, vms, prof, asCfg)
			scaler.Start()
			gen := arrival.New(s, svc.Trace, invoker(vms, prof.Name))
			gen.Start()

		default: // the Amoeba variants
			w := &wiring{}
			wired[prof.Name] = w
			// Register the primary function; the engine exists a moment
			// later, so indirect through the wiring struct.
			pool.Register(prof, func(r metrics.QueryRecord) {
				w.eng.OnServerlessComplete(r)
			})
			vms.Deploy(prof, func(r metrics.QueryRecord) {
				w.eng.OnIaaSComplete(r)
			})

			set := SurfaceSet(prof, slCfg)
			pred, err := controller.NewPredictor(prof, set, pool.NMax(prof.Name), units.Fraction(0.95))
			if err != nil {
				panic(err) // scenario validation already vouched for these inputs
			}
			ctrl, err := controller.New(controller.DefaultConfig(), pred)
			if err != nil {
				panic(err) // DefaultConfig is always valid
			}

			engCfg := engine.DefaultConfig(slCfg.Node.Capacity())
			engCfg.SamplePeriod, err = queueing.SamplePeriod(
				slCfg.ColdStartMean, units.Seconds(prof.QoSTarget),
				units.Seconds(prof.ExecTime), sc.allowedError(), units.Seconds(10))
			if err != nil {
				panic(err) // scenario validation bounds the QoS target and error
			}
			engCfg.Prewarm = sc.Variant != VariantAmoebaNoP
			w.eng = engine.New(s, pool, vms, prof, ctrl, mon, engCfg)
			if sc.Bus != nil {
				w.eng.SetBus(sc.Bus)
				w.eng.SetTracer(tracer)
				ctrl.SetTracer(tracer)
			}
			w.coll = w.eng.Collector
			w.eng.Start()

			gen := arrival.New(s, svc.Trace, func(sim.Time) { w.eng.HandleQuery() })
			gen.Start()

			if sc.SnapshotPeriod > 0 {
				eng := w.eng
				s.Every(sc.SnapshotPeriod.Raw(), func() {
					eng.Timeline.RecordSnapshot(metrics.Snapshot{
						At:   float64(s.Now()),
						Mode: eng.Mode(),
					})
				})
			}
		}
	}

	s.Run(sim.Time(sc.Duration.Raw()))

	for _, svc := range sc.Services {
		prof := svc.Profile
		w := wired[prof.Name]
		sr := &ServiceResult{Profile: prof, Collector: w.coll, FinalWeights: monitor.InitialWeights()}
		switch sc.Variant {
		case VariantNameko, VariantAutoscale:
			sr.IaaSUsage = vms.UsageFor(prof.Name)
			sr.ConsumedCPUSeconds = vms.ConsumedCPUSeconds(prof.Name)
			sr.Timeline = &metrics.Timeline{}
		case VariantOpenWhisk:
			sr.ServerlessUsage = pool.UsageFor(prof.Name)
			sr.Timeline = &metrics.Timeline{}
		default:
			sr.IaaSUsage = vms.UsageFor(prof.Name)
			sr.ConsumedCPUSeconds = vms.ConsumedCPUSeconds(prof.Name)
			sr.ServerlessUsage = pool.UsageFor(prof.Name)
			sr.ServerlessUsage = sr.ServerlessUsage.Add(pool.UsageFor(prof.Name + engine.ShadowSuffix))
			sr.Timeline = w.eng.Timeline
			sr.Decisions = w.eng.Controller().Decisions()
			sr.BlockedSwitches = w.eng.BlockedSwitches()
			sr.FinalWeights = mon.WeightsFor(prof.Name)
			sr.ViolationWindows = w.eng.Windowed.Windows(float64(s.Now()))
		}
		res.Services[prof.Name] = sr
	}
	if mon != nil {
		res.MeterCPUSeconds = mon.MeterCPUSeconds()
	}
	res.Events = s.Events()
	return res
}

// invoker adapts a platform Invoke method to an arrival callback.
func invoker(p interface{ Invoke(string) }, name string) func(sim.Time) {
	return func(sim.Time) { p.Invoke(name) }
}

// BackgroundTenants returns the paper's §VII-A co-tenant setup: float, dd
// and cloud_stor running on the shared pool with their own diurnal
// pattern "to add a slight pressure ... on serverless". The peaks are
// calibrated so midday pressure sits around 0.25–0.30 on each of CPU,
// disk and network — clearly visible to the meters and strong enough to
// move the admissible load λ(μ_n) across the day (which is what makes the
// switch points non-identical, Fig. 12), yet far from saturating any
// resource (a saturated pool death-spirals: pressure inflates busy time,
// which inflates pressure).
func BackgroundTenants(dayLength units.Seconds, seed uint64) []ServiceSpec {
	specs := []struct {
		prof    workload.Profile
		peakQPS float64
	}{
		{workload.Float(), 90},     // ~9.5 cores midday → P_cpu ≈ 0.25
		{workload.DD(), 20},        // ~600 MB/s midday → P_io ≈ 0.30
		{workload.CloudStor(), 25}, // ~6.1 Gb/s midday → P_net ≈ 0.25
	}
	var bgs []ServiceSpec
	for i, s := range specs {
		prof := s.prof
		prof.Name = "bg_" + prof.Name
		prof.QoSTarget *= 4 // background tenants have loose targets
		bgs = append(bgs, ServiceSpec{
			Profile: prof,
			Trace:   trace.NewDiurnal(s.peakQPS, s.peakQPS*0.25, dayLength.Raw(), seed+uint64(i)),
		})
	}
	return bgs
}
