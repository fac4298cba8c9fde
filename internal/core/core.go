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
	"math"

	"amoeba/internal/controller"
	"amoeba/internal/metrics"
	"amoeba/internal/monitor"
	"amoeba/internal/obs"
	"amoeba/internal/resources"
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

	// Bus is the telemetry bus events are emitted on (nil = unobserved;
	// every emission site stays on its zero-cost path). Attach sinks
	// before Run — the bus is wired into the platforms, the monitor, and
	// every engine.
	Bus *obs.Bus
}

// Validate reports scenario errors: an unknown variant, no services, a
// duration that is not positive and finite, an invalid or duplicate
// profile, and a trace whose peak rate is NaN, infinite or negative. A
// zero peak is valid and generates no arrivals.
func (sc *Scenario) Validate() error {
	if _, ok := variantNames[sc.Variant]; !ok {
		return fmt.Errorf("core: unknown variant %v", sc.Variant)
	}
	if len(sc.Services) == 0 {
		return fmt.Errorf("core: scenario with no services")
	}
	if d := sc.Duration.Raw(); !(d > 0) || math.IsInf(d, 1) {
		return fmt.Errorf("core: duration %v is not positive and finite", sc.Duration)
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
			if pk := s.Trace.Peak(); !(pk >= 0) || math.IsInf(pk, 1) {
				return fmt.Errorf("core: service %s peak rate %v is not non-negative and finite", s.Profile.Name, pk)
			}
			if seen[s.Profile.Name] {
				return fmt.Errorf("core: duplicate service name %q", s.Profile.Name)
			}
			seen[s.Profile.Name] = true
		}
	}
	return nil
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
// correct failure mode mid-suite. When Run returns, or panics, sc.Bus
// has been flushed: every event has reached its sinks' writers.
func Run(sc Scenario) *Result {
	if err := sc.Validate(); err != nil {
		panic(err)
	}
	defer sc.Bus.Flush() // a writer keeps its error for its own Err
	c := newCell(&sc, sc.Seed^0x5eed)
	// One tracer per run: trace/span IDs are dense counters, so two runs
	// of the same seed produce byte-identical trace streams even when a
	// sweep executes runs in parallel.
	if sc.Bus != nil {
		c.attach(sc.Bus, obs.NewTracer(sc.Bus))
	}
	c.addIaaS()
	for _, bg := range sc.Background {
		c.addTenant(bg)
	}
	if sc.Variant.hybrid() {
		c.startMonitor()
	}
	for _, svc := range sc.Services {
		c.addService(svc)
	}
	c.sim.Run(sim.Time(sc.Duration.Raw()))
	res := newResult(sc)
	c.harvest(res)
	return res
}

// newResult returns an empty Result for sc, ready for harvest.
func newResult(sc Scenario) *Result {
	return &Result{
		Variant:    sc.Variant,
		Duration:   sc.Duration,
		Services:   make(map[string]*ServiceResult),
		Background: make(map[string]*metrics.Collector),
	}
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
