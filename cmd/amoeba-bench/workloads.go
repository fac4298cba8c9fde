package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"syscall"
	"time"

	"amoeba/internal/core"
	"amoeba/internal/metrics"
	"amoeba/internal/obs"
	"amoeba/internal/resources"
	"amoeba/internal/serverless"
	"amoeba/internal/stats"
	"amoeba/internal/trace"
	"amoeba/internal/units"
	"amoeba/internal/workload"
)

const (
	paperDay    units.Seconds  = 3600 // one compressed diurnal day (§VII-A)
	overloadDay units.Seconds  = 600  // OpenWhisk day, compressed so a pass fits a run three times
	trough      units.Fraction = 0.2  // night trough as a fraction of peak
	// shards is sharded-day's worker count: the core count of the host
	// the baseline was measured on, so the workers really run in parallel.
	shards = 2
)

// scenario is one operation of a workload: one named scenario run.
type scenario struct {
	name string
	sc   core.Scenario
}

// benchWorkload is one named input set. Every workload is open loop:
// arrivals come from the scenarios' diurnal Poisson traces whatever the
// simulator's speed, and all load is generated inside this process.
type benchWorkload struct {
	name string
	// shards > 0 runs every scenario on core.RunSharded with that many
	// workers; 0 runs core.Run.
	shards int
	// observed attaches a JSONL writer and a metrics sink to every run,
	// as amoeba-sim -events -metrics-dump does.
	observed bool
	build    func(seed uint64) []scenario
}

// shapeSeed fixes the diurnal load curves' noise. The shapes are part of
// a workload's definition, as they decide when load peaks and so how
// much work a run is; -seed varies everything a scenario seed draws
// (arrivals, service times, cold starts) over those shapes.
const shapeSeed = 0xA0EBA

// workloads are the benchmark's inputs; README.md gives the reason for
// each. Every scenario seed derives from the one -seed.
var workloads = []benchWorkload{
	{name: "amoeba-day", build: func(seed uint64) []scenario {
		return paperGrid(seed, paperDay, core.VariantAmoeba, core.VariantAmoebaNoM, core.VariantAmoebaNoP)
	}},
	{name: "openwhisk-overload", build: func(seed uint64) []scenario {
		return paperGrid(seed, overloadDay, core.VariantOpenWhisk)
	}},
	{name: "sharded-day", shards: shards, build: func(seed uint64) []scenario {
		return paperGrid(seed, paperDay, core.VariantAmoeba)
	}},
	{name: "amoeba-observed", observed: true, build: func(seed uint64) []scenario {
		return paperGrid(seed, paperDay, core.VariantAmoeba)
	}},
}

func lookupWorkload(name string) (benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q (valid: %v)", name, names)
}

// scenarios builds one pass of the workload, with every horizon scaled
// by scale (1 is the benchmark; tests shorten it).
func (w benchWorkload) scenarios(seed uint64, scale float64) []scenario {
	scs := w.build(seed)
	for i := range scs {
		scs[i].sc.Duration = units.Scale(scs[i].sc.Duration, scale)
	}
	return scs
}

// paperGrid builds §VII-A's standard scenario for every (variant,
// benchmark) pair: one benchmark under a diurnal day plus the three
// background tenants. Seeds follow the experiments suite's derivation,
// so at seed == shapeSeed the runs are the figure suite's.
func paperGrid(seed uint64, day units.Seconds, variants ...core.Variant) []scenario {
	var out []scenario
	for _, v := range variants {
		for _, prof := range workload.All() {
			h := fnv64(prof.Name)
			tr := trace.NewDiurnal(prof.PeakQPS, prof.PeakQPS*trough.Raw(), day.Raw(), shapeSeed^h)
			out = append(out, scenario{
				name: v.String() + "/" + prof.Name,
				sc: core.Scenario{
					Variant:    v,
					Services:   []core.ServiceSpec{{Profile: prof, Trace: tr}},
					Background: core.BackgroundTenants(day, shapeSeed+7),
					Duration:   day,
					Seed:       seed ^ h ^ uint64(v)<<13,
				},
			})
		}
	}
	return out
}

func fnv64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s)) // hash.Hash writes never fail
	return h.Sum64()
}

// fillProfiles is the benchmark's set-up: the offline profiling step
// (§IV-B) for the five paper microservices, memoised process-wide by
// core. Every workload pays it, since every deployment profiles its
// services once before serving.
func fillProfiles(tr *tracer) {
	cfg := serverless.DefaultConfig()
	t0 := time.Now()
	core.MeterCurves(cfg)
	tr.add("MeterCurves", "profiling", t0)
	for _, prof := range workload.All() {
		t0 = time.Now()
		core.SurfaceSet(prof, cfg)
		tr.add("SurfaceSet "+prof.Name, "profiling", t0)
	}
}

// countingWriter counts the bytes written through it and forwards them
// to w when w is set. The timed path leaves w nil: hashing the stream is
// verification work and stays out of the measurement.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	if c.w != nil {
		return c.w.Write(p)
	}
	return len(p), nil
}

// opRun is one executed scenario and what it cost the host.
type opRun struct {
	name       string
	res        *core.Result
	err        error
	wall       time.Duration
	ref        float64       // wall in reference-host seconds (timed passes)
	probe      time.Duration // mean of the probes around the run (timed passes)
	cpu        time.Duration // process CPU time (all threads) during the run
	allocBytes uint64
	allocs     uint64
	gcCycles   uint32
	gcPause    time.Duration
	obsEvents  int    // events the JSONL sink wrote (observed workloads)
	jsonlBytes int64  // bytes the JSONL sink wrote
	digest     uint64 // the Result's digest, once released
}

// execute runs one scenario as one operation. A forced GC first keeps
// the previous operation's garbage off this one's clock. The JSONL
// stream of an observed workload goes to sink (nil counts and drops).
func (w benchWorkload) execute(s scenario, sink io.Writer, tr *tracer) opRun {
	r := opRun{name: s.name}
	sc := s.sc
	var jw *obs.JSONLWriter
	out := &countingWriter{w: sink}
	if w.observed {
		sc.Bus = obs.NewBus()
		jw = obs.NewJSONLWriter(out)
		sc.Bus.Attach(jw)
		sc.Bus.Attach(obs.NewMetricsSink(obs.NewRegistry()))
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := processCPU()
	var t0 time.Time
	tr.profiled(s.name, func() {
		t0 = time.Now()
		r.res, r.err = w.call(sc)
		r.wall = time.Since(t0)
	})
	r.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&m1)
	tr.add("run "+s.name, "scenario", t0)
	r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	r.allocs = m1.Mallocs - m0.Mallocs
	r.gcCycles = m1.NumGC - m0.NumGC
	r.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	if r.err == nil {
		r.err = check(r.res)
	}
	if jw != nil {
		r.obsEvents, r.jsonlBytes = jw.Count(), out.n
		if err := jw.Err(); err != nil && r.err == nil {
			r.err = fmt.Errorf("jsonl sink: %w", err)
		}
	}
	return r
}

// call runs the scenario through the public kernel entry point. The
// kernels panic on invalid scenarios; a panic is this operation's
// failure, reported as an error.
func (w benchWorkload) call(sc core.Scenario) (res *core.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	if w.shards > 0 {
		return core.RunSharded(sc, w.shards), nil
	}
	return core.Run(sc), nil
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// check is the per-operation correctness test: every collector's
// backend counts sum to its query count, every managed service served
// queries, and every usage integral is finite.
func check(res *core.Result) error {
	for name, sr := range res.Services {
		if sr.Collector.Count() == 0 {
			return fmt.Errorf("service %s served no queries", name)
		}
		if err := checkCollector(sr.Collector); err != nil {
			return err
		}
		for _, v := range []resources.Vector{sr.IaaSUsage, sr.ServerlessUsage} {
			for _, k := range resources.Kinds() {
				if x := v.Get(k); math.IsNaN(x) || math.IsInf(x, 0) {
					return fmt.Errorf("service %s: non-finite %v usage %v", name, k, x)
				}
			}
		}
	}
	for _, c := range res.Background {
		if err := checkCollector(c); err != nil {
			return err
		}
	}
	return nil
}

func checkCollector(c *metrics.Collector) error {
	iaas, sl := c.BackendCount(metrics.BackendIaaS), c.BackendCount(metrics.BackendServerless)
	if iaas+sl != c.Count() {
		return fmt.Errorf("collector %s: backends %d+%d != count %d", c.Service, iaas, sl, c.Count())
	}
	return nil
}

// outcome is the modelled system's end-to-end result over one pass:
// the paper's QoS and usage metrics (Figs. 10 and 11) pooled over every
// managed service.
type outcome struct {
	queries       int
	violationPct  float64
	p50, p95, p99 float64 // latency / QoS target
	cpuCoreS      float64
	memGBS        float64
}

// harvest pools the per-query latencies of every managed service,
// normalised to its QoS target, and sums the usage integrals.
func harvest(runs []opRun) outcome {
	var o outcome
	var violations float64
	pooled := stats.NewSample(0)
	for _, r := range runs {
		if r.err != nil {
			continue
		}
		for _, name := range sortedKeys(r.res.Services) { // a fixed order keeps the float sums exact
			sr := r.res.Services[name]
			c := sr.Collector
			o.queries += c.Count()
			violations += math.Round(c.ViolationFraction() * float64(c.Count()))
			for _, l := range c.Latencies().Values() {
				pooled.Add(l / c.QoSTarget)
			}
			u := sr.TotalUsage()
			o.cpuCoreS += u.CPU
			o.memGBS += u.MemMB / 1024
		}
	}
	if o.queries == 0 {
		return o
	}
	o.violationPct = 100 * violations / float64(o.queries)
	o.p50 = pooled.Quantile(0.50)
	o.p95 = pooled.Quantile(0.95)
	o.p99 = pooled.Quantile(0.99)
	return o
}
