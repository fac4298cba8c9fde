// Package profiling builds the contention-meter curves (Fig. 8) and the
// per-microservice latency surfaces (Fig. 9) by running controlled
// mini-simulations against the serverless platform: the probed function
// runs alone while the harness holds the pressure on one resource at an
// exact level, sweeping the grid.
//
// Every grid cell is an independent simulation with its own seed, so the
// sweep fans out across a worker pool — one goroutine per core — which is
// how this repository parallelises its models: across simulations, never
// inside one.
package profiling

import (
	"fmt"
	"runtime"
	"sync"

	"amoeba/internal/arrival"
	"amoeba/internal/meters"
	"amoeba/internal/metrics"
	"amoeba/internal/resources"
	"amoeba/internal/serverless"
	"amoeba/internal/sim"
	"amoeba/internal/stats"
	"amoeba/internal/surfaces"
	"amoeba/internal/trace"
	"amoeba/internal/workload"
)

// The harness's fixed settings, balancing precision and runtime. Every
// grid cell runs on as many workers as GOMAXPROCS allows; each cell
// derives its seed from baseSeed and its own index, so the worker count
// never changes a result.
const (
	// cellSeconds is the virtual time simulated per grid cell.
	cellSeconds = 60.0
	// probeQPS is the probe load meter curves are profiled at.
	probeQPS = 2.0
	// baseSeed derives the per-cell seeds.
	baseSeed uint64 = 0xA0EBA
	// meterQuantile is the latency quantile a meter curve records:
	// meters probe, they do not serve, so the median.
	meterQuantile = 0.5
)

// injectionFor converts a pressure level on meter resource idx into a raw
// demand vector against the given capacity. It panics on an index outside
// the three meter resources — callers iterate a fixed range.
func injectionFor(idx int, pressure float64, capacity resources.Vector) resources.Vector {
	switch idx {
	case 0:
		return resources.Vector{CPU: pressure * capacity.CPU}
	case 1:
		return resources.Vector{DiskMBs: pressure * capacity.DiskMBs}
	case 2:
		return resources.Vector{NetMbs: pressure * capacity.NetMbs}
	}
	panic(fmt.Sprintf("profiling: meter index %d out of range", idx))
}

// measureCell runs one mini-simulation: the profile alone on a platform
// whose pressure on meter resource idx is pinned at the given level,
// driven at loadQPS, returning a latency statistic over warm queries.
//
// bodyOnly selects what is measured. Meter curves record the median of
// the probe's full warm-path latency (a probe at probeQPS never queues,
// so the whole latency is contention signal). Latency surfaces record only the function body:
// queueing is the M/M/N discriminant's job, and folding it into the
// surfaces would double-count it in Eq. 6 — and blow the features up near
// saturation, where profiling-cell queues explode.
//
// It panics if the cell produced no warm samples, which would silently
// poison the surface grid.
func measureCell(prof workload.Profile, idx int, pressure, loadQPS float64,
	cfg serverless.Config, seed uint64, bodyOnly bool) float64 {

	s := sim.New(seed)
	p := serverless.New(s, cfg)

	lat := stats.NewSample(1024)
	p.Register(prof, func(r metrics.QueryRecord) {
		if r.Breakdown.ColdStart != 0 {
			return // profiling measures the warm path
		}
		if bodyOnly {
			lat.Add(r.Breakdown.Exec)
		} else {
			lat.Add(r.Latency())
		}
	}, serverless.WithNMax(400))

	p.InjectDemand(injectionFor(idx, pressure, cfg.Node.Capacity()))

	// Prewarm enough containers that profiling measures contention, not
	// cold starts or queueing for capacity.
	warm := int(loadQPS*(prof.ExecTime*4+prof.Overheads.Total())) + 2
	p.Prewarm(prof.Name, warm, nil)

	inv := p.Bind(prof.Name)
	gen := arrival.New(s, trace.Constant{QPS: loadQPS}, func(sim.Time) { inv.Invoke() })
	// Start after the prewarm settles.
	s.At(6, func() { gen.Start() })
	s.Run(sim.Time(6 + cellSeconds))

	if lat.Len() == 0 {
		panic(fmt.Sprintf("profiling: no warm samples for %s at p=%v load=%v",
			prof.Name, pressure, loadQPS))
	}
	if bodyOnly {
		// Surfaces feed Eq. 6's μ — a mean processing capacity — so they
		// record the mean body latency. The runtime heartbeat compares
		// observed mean body time against the same statistic, keeping
		// features and calibration targets commensurable.
		return lat.Mean()
	}
	return lat.Quantile(meterQuantile)
}

// MeterCurve profiles one contention meter (one panel of Fig. 8): its
// latency as the pressure on its resource sweeps the grid. The result is
// made monotone by isotonic (running-max) smoothing so the runtime
// inversion is well-defined.
// It panics if the grid has fewer than two points or the profiled curve
// fails validation.
func MeterCurve(m meters.Meter, cfg serverless.Config, pressures []float64) *meters.Curve {
	if len(pressures) < 2 {
		panic("profiling: need at least 2 pressure points")
	}
	lats := make([]float64, len(pressures))
	parallelFor(len(pressures), runtime.GOMAXPROCS(0), func(i int) {
		seed := baseSeed ^ (uint64(m.Index+1) << 32) ^ uint64(i)
		lats[i] = measureCell(m.Profile, m.Index, pressures[i], probeQPS, cfg, seed, false)
	})
	for i := 1; i < len(lats); i++ { // isotonic smoothing
		if lats[i] < lats[i-1] {
			lats[i] = lats[i-1]
		}
	}
	c := &meters.Curve{Meter: m, Pressures: append([]float64(nil), pressures...), Latencies: lats}
	if err := c.Validate(); err != nil {
		panic(err)
	}
	return c
}

// AllMeterCurves profiles the three meters through the bounded pool,
// one worker per meter.
func AllMeterCurves(cfg serverless.Config, pressures []float64) [3]*meters.Curve {
	var out [3]*meters.Curve
	ms := meters.All()
	parallelFor(len(ms), len(ms), func(i int) {
		out[ms[i].Index] = MeterCurve(ms[i], cfg, pressures)
	})
	return out
}

// BuildSurface profiles one latency surface (one panel of Fig. 9): the
// service's mean body latency over (pressure on resource idx) × (own
// load). The cells' seeds hash the service name, so a renamed profile
// profiles to different values. It panics if the profiled surface fails
// validation.
func BuildSurface(prof workload.Profile, idx int, cfg serverless.Config,
	pressures, loads []float64) *surfaces.Surface {

	lat := make([][]float64, len(pressures))
	for i := range lat {
		lat[i] = make([]float64, len(loads))
	}
	cells := len(pressures) * len(loads)
	parallelFor(cells, runtime.GOMAXPROCS(0), func(k int) {
		i, j := k/len(loads), k%len(loads)
		seed := baseSeed ^ (uint64(idx+7) << 40) ^ uint64(k)<<8 ^ sim.HashName(prof.Name)
		lat[i][j] = measureCell(prof, idx, pressures[i], loads[j], cfg, seed, true)
	})
	// Isotonic smoothing along the pressure axis: physics says more
	// pressure never helps, so residual sampling noise is clamped.
	for j := range loads {
		for i := 1; i < len(pressures); i++ {
			if lat[i][j] < lat[i-1][j] {
				lat[i][j] = lat[i-1][j]
			}
		}
	}
	s := &surfaces.Surface{
		Service:   prof.Name,
		Resource:  idx,
		Pressures: append([]float64(nil), pressures...),
		Loads:     append([]float64(nil), loads...),
		Lat:       lat,
	}
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return s
}

// BuildSet profiles all three surfaces of a service. It panics if the
// assembled set fails validation.
func BuildSet(prof workload.Profile, cfg serverless.Config,
	pressures, loads []float64) *surfaces.Set {

	set := &surfaces.Set{Service: prof.Name}
	var wg sync.WaitGroup
	for idx := 0; idx < 3; idx++ {
		idx := idx
		wg.Add(1)
		go func() {
			defer wg.Done()
			set.Surfaces[idx] = BuildSurface(prof, idx, cfg, pressures, loads)
		}()
	}
	wg.Wait()
	if err := set.Validate(); err != nil {
		panic(err)
	}
	return set
}

// DefaultPressureGrid returns the pressure sweep used across experiments.
func DefaultPressureGrid() []float64 {
	return []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0}
}

// DefaultLoadGrid returns the load sweep for a profile: fractions of its
// peak, covering the region where serverless deployment is plausible.
func DefaultLoadGrid(prof workload.Profile) []float64 {
	fracs := []float64{0.02, 0.10, 0.25, 0.45, 0.60}
	out := make([]float64, len(fracs))
	for i, f := range fracs {
		out[i] = prof.PeakQPS * f
	}
	return out
}

// parallelFor runs body(i) for i in [0, n) on up to workers goroutines.
func parallelFor(n, workers int, body func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				body(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
