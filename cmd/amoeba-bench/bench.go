package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"amoeba/internal/core"
	"amoeba/internal/metrics"
	"amoeba/internal/monitor"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, since one fill varies by a third.
const setupReps = 7

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runInfo describes a run: what was measured, and on what host, so that
// every multi-core number states its core count.
type runInfo struct {
	Workload   string    `json:"workload"`
	Seed       uint64    `json:"seed"`
	Seconds    int       `json:"seconds"`
	Trace      bool      `json:"trace"`
	Passes     int       `json:"passes"`
	PassWallS  []float64 `json:"pass_wall_s"` // raw, not scaled to the reference host
	ProbeMS    float64   `json:"probe_ms"`    // median probe: refProbe on the baseline host at rest
	Queries    int       `json:"queries"`
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	CPU        string    `json:"cpu"`
	Go         string    `json:"go"`
}

func newRunInfo(w benchWorkload, cfg runConfig) runInfo {
	return runInfo{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.traced,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: cpuModel(), Go: runtime.Version(),
	}
}

func hostSummary() string {
	return fmt.Sprintf("nproc %d, GOMAXPROCS %d, %s, %s", runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version())
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// setup fills the profiling memo from empty and builds the scenarios,
// setupReps times, and returns the scenarios and the median time in
// reference-host seconds.
func (w benchWorkload) setup(seed uint64, scale float64, tr *tracer) ([]scenario, float64) {
	var scs []scenario
	times := make([]float64, setupReps)
	for i := range times {
		core.ResetProfileCache()
		before := probe(1)
		runtime.GC()
		t0 := time.Now()
		fillProfiles(tr)
		scs = w.scenarios(seed, scale)
		wall := time.Since(t0)
		tr.add("setup", "setup", t0)
		times[i] = refSeconds(wall, before, probe(1))
	}
	return scs, median(times)
}

// passResult is one run of every scenario of a workload. Its Results
// are released once summarised, so a run's memory holds one pass.
type passResult struct {
	runs       []opRun
	wall       time.Duration // Σ operation wall time
	cpu        time.Duration
	allocBytes uint64
	allocs     uint64
	gcCycles   uint32
	gcPause    time.Duration
	resultHeap uint64        // live heap the pass's Results hold
	elapsed    time.Duration // whole pass, forced GCs included
}

func (w benchWorkload) pass(scs []scenario, tr *tracer) passResult {
	t0 := time.Now()
	base := liveHeap()
	p := passResult{runs: make([]opRun, 0, len(scs))}
	for _, s := range scs {
		before := probe(w.shards)
		r := w.execute(s, nil, tr)
		after := probe(w.shards)
		r.ref = refSeconds(r.wall, before, after)
		r.probe = (before + after) / 2
		p.runs = append(p.runs, r)
		p.wall += r.wall
		p.cpu += r.cpu
		p.allocBytes += r.allocBytes
		p.allocs += r.allocs
		p.gcCycles += r.gcCycles
		p.gcPause += r.gcPause
	}
	if h := liveHeap(); h > base {
		p.resultHeap = h - base // p.runs still holds every Result here
	}
	p.elapsed = time.Since(t0)
	tr.add("pass", "pass", t0)
	return p
}

// release digests every Result and drops it.
func (p *passResult) release() {
	for i := range p.runs {
		if r := &p.runs[i]; r.err == nil {
			r.digest = digest(r.res)
		}
		p.runs[i].res = nil
	}
}

// liveHeap returns the heap in use right after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// runConfig is one run's settings.
type runConfig struct {
	seed    uint64
	seconds int     // measurement budget
	traced  bool    // per-layer run instead of the end-to-end one
	outDir  string  // where a traced run writes its artifacts
	scale   float64 // horizon scale: 1 is the benchmark, tests shorten it
}

// measure runs the workload for the budget and reports its end-to-end
// metrics, or with traced set, its per-layer metrics. It runs whole
// passes until another pass would overrun the budget, and at least one;
// a traced run alternates untraced and traced passes. Failed operations
// are counted in the report; an error means the run could not finish.
func measure(w benchWorkload, cfg runConfig) (report, runInfo, error) {
	info := newRunInfo(w, cfg)
	var tr *tracer
	dir := filepath.Join(cfg.outDir, w.name)
	if cfg.traced {
		tr = newTracer()
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return report{}, info, err
		}
	}
	scs, setupS := w.setup(cfg.seed, cfg.scale, tr)
	counted, counters := countRates(scs)

	budget := time.Duration(cfg.seconds) * time.Second
	start := time.Now()
	var plain, traced []passResult
	var out outcome
	var counts layerCounts
	var harvestS []float64
	for {
		p := w.pass(scs, nil)
		if len(plain) == 0 {
			out = harvest(p.runs)
		}
		p.release()
		plain = append(plain, p)
		took := p.elapsed
		if cfg.traced {
			t := w.pass(counted, tr)
			h0 := time.Now()
			tr.profiled("harvest", func() { harvest(t.runs) })
			harvestS = append(harvestS, time.Since(h0).Seconds())
			tr.add("harvest", "metrics", h0)
			if len(traced) == 0 {
				counts = w.countLayers(t.runs)
			}
			t.release()
			traced = append(traced, t)
			took += time.Since(h0) + t.elapsed
		}
		if time.Since(start)+took > budget {
			break
		}
	}
	if tr != nil && tr.err != nil {
		return report{}, info, fmt.Errorf("profile: %w", tr.err)
	}

	rep := report{Metrics: map[string]metric{}}
	if err := tally(&rep, append(append([]passResult(nil), plain...), traced...)); err != nil {
		fmt.Fprintln(os.Stderr, "amoeba-bench: operation failed:", err)
	}
	info.Passes = len(plain)
	var probes []float64
	for _, p := range plain {
		info.PassWallS = append(info.PassWallS, p.wall.Seconds())
		for _, r := range p.runs {
			probes = append(probes, float64(r.probe.Microseconds())/1e3)
		}
	}
	info.ProbeMS = median(probes)
	info.Queries = out.queries

	if !cfg.traced {
		put := func(name, unit string, v float64) { rep.Metrics[name] = metric{v, unit} }
		put("wall_ref_s", "s", refWall(plain))
		put("setup_s", "s", setupS)
		put("alloc_mb", "MB", medianOf(plain, func(p passResult) float64 { return float64(p.allocBytes) / 1e6 }))
		put("allocs_k", "k", medianOf(plain, func(p passResult) float64 { return float64(p.allocs) / 1e3 }))
		put("result_heap_mb", "MB", medianOf(plain, func(p passResult) float64 { return float64(p.resultHeap) / 1e6 }))
		put("peak_rss_mb", "MB", peakRSSMB())
		put("sim_latency_p50_norm", "ratio", out.p50)
		put("sim_latency_p95_norm", "ratio", out.p95)
		put("sim_latency_p99_norm", "ratio", out.p99)
		put("sim_cpu_core_s", "core.s", out.cpuCoreS)
		put("sim_mem_gb_s", "GB.s", out.memGBS)
		return rep, info, nil
	}

	rep.Metrics = w.layerMetrics(plain, traced, tr.layers, counts, counters, setupS, median(harvestS))
	rep.Metrics["metrics.violation_pct"] = metric{out.violationPct, "%"}
	if err := writeTraceOutputs(dir, info, rep.Metrics, tr); err != nil {
		return report{}, info, err
	}
	return rep, info, nil
}

// refWall sums, over the workload's scenarios, the median across
// passes of each scenario's wall time in reference-host seconds.
func refWall(passes []passResult) float64 {
	total := 0.0
	for j := range passes[0].runs {
		xs := make([]float64, len(passes))
		for i, p := range passes {
			xs[i] = p.runs[j].ref
		}
		total += median(xs)
	}
	return total
}

// tally counts operations and marks failures: an operation fails on an
// error, or when its Result digest differs from the same scenario's in
// the first pass (the simulator is deterministic per seed). It returns
// the first failure.
func tally(rep *report, passes []passResult) error {
	var firstErr error
	fail := func(err error) {
		rep.Failed++
		if firstErr == nil {
			firstErr = err
		}
	}
	want := map[int]uint64{} // scenario index -> first pass's digest
	for i, p := range passes {
		for j, r := range p.runs {
			rep.Attempted++
			if r.err != nil {
				fail(fmt.Errorf("%s: %w", r.name, r.err))
				continue
			}
			if i == 0 {
				want[j] = r.digest
			} else if first, ok := want[j]; ok && r.digest != first {
				fail(fmt.Errorf("%s: result differs between passes of one seed", r.name))
			}
		}
	}
	rep.Correct = rep.Failed == 0
	return firstErr
}

// layerCounts are the per-layer work counts one pass's Results report.
type layerCounts struct {
	events, serverless, iaas, decisions, switches, blocked, obsEvents int
	coldSum, meterCPU, epochs                                         float64
	jsonlBytes                                                        int64
}

func (w benchWorkload) countLayers(runs []opRun) layerCounts {
	var c layerCounts
	period := monitor.DefaultConfig().SamplePeriod.Raw()
	for _, r := range runs {
		if r.err != nil {
			continue
		}
		c.events += int(r.res.Events)
		c.meterCPU += r.res.MeterCPUSeconds
		c.obsEvents += r.obsEvents
		c.jsonlBytes += r.jsonlBytes
		if w.shards > 0 {
			c.epochs += math.Ceil(r.res.Duration.Raw() / period)
		}
		colls := make([]*metrics.Collector, 0, len(r.res.Services)+len(r.res.Background))
		for _, sr := range r.res.Services {
			colls = append(colls, sr.Collector)
			c.decisions += len(sr.Decisions)
			c.switches += len(sr.Timeline.Switches)
			c.blocked += sr.BlockedSwitches
		}
		for _, bg := range r.res.Background {
			colls = append(colls, bg)
		}
		for _, coll := range colls {
			c.serverless += coll.BackendCount(metrics.BackendServerless)
			c.iaas += coll.BackendCount(metrics.BackendIaaS)
			c.coldSum += coll.MeanBreakdown().ColdStart * float64(coll.Count())
		}
	}
	return c
}

// layerMetrics gathers the traced run's per-layer numbers: profile
// shares, the counts the benchmark can read at the public boundary, and
// host costs of the untraced passes.
func (w benchWorkload) layerMetrics(plain, traced []passResult, prof *folded, c layerCounts, counters []*rateCounter, setupS, harvestS float64) map[string]metric {
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	for _, l := range layers {
		put(l+".self_pct", "%", prof.pct(l))
	}
	var candidates uint64
	for _, rc := range counters {
		candidates += rc.calls
	}
	wall := refWall(plain)
	workers := math.Max(1, float64(w.shards))
	put("sim.events", "count", float64(c.events))
	put("sim.events_per_s", "1/s", float64(c.events)/wall)
	put("arrival.candidates", "count", float64(candidates)/float64(len(traced)))
	put("serverless.queries", "count", float64(c.serverless))
	put("serverless.cold_start_mean_s", "s", c.coldSum/math.Max(1, float64(c.serverless)))
	put("iaas.queries", "count", float64(c.iaas))
	put("controller.decisions", "count", float64(c.decisions))
	put("engine.switches", "count", float64(c.switches))
	put("engine.blocked_switches", "count", float64(c.blocked))
	put("monitor.meter_cpu_s", "s", c.meterCPU)
	put("metrics.harvest_s", "s", harvestS)
	put("obs.events", "count", float64(c.obsEvents))
	put("obs.jsonl_mb", "MB", float64(c.jsonlBytes)/1e6)
	put("core.shard_cpu_util", "ratio", medianOf(plain, func(p passResult) float64 {
		return p.cpu.Seconds() / (p.wall.Seconds() * workers)
	}))
	put("core.epochs", "count", c.epochs)
	put("profiling.setup_s", "s", setupS)
	put("runtime.gc_cycles", "count", medianOf(plain, func(p passResult) float64 { return float64(p.gcCycles) }))
	put("runtime.gc_pause_ms", "ms", medianOf(plain, func(p passResult) float64 { return float64(p.gcPause) / 1e6 }))
	put("bench.trace_overhead_pct", "%", 100*(refWall(traced)-wall)/wall)
	put("bench.profile_samples", "count", float64(prof.samples))
	return m
}

// writeTraceOutputs writes the traced run's artifacts: the tracer's
// spans and profiles, and the per-layer table with the run description.
func writeTraceOutputs(dir string, info runInfo, ms map[string]metric, tr *tracer) error {
	if err := tr.write(dir); err != nil {
		return err
	}
	table := map[string]map[string]metric{}
	for name, m := range ms {
		layer, key, _ := strings.Cut(name, ".")
		if table[layer] == nil {
			table[layer] = map[string]metric{}
		}
		table[layer][key] = m
	}
	data, err := json.MarshalIndent(map[string]any{"run": info, "layers": table}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "layers.json"), data, 0o644)
}

// digest fingerprints everything a Result reports, so two runs that
// differ anywhere in their outcome digest differently.
func digest(res *core.Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(xs ...float64) {
		for _, x := range xs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			_, _ = h.Write(b[:]) // hash.Hash writes never fail
		}
	}
	putCollector := func(c *metrics.Collector) {
		put(float64(c.Count()), float64(c.BackendCount(metrics.BackendIaaS)), c.ViolationFraction())
		if c.Count() > 0 {
			mb := c.MeanBreakdown()
			put(c.P95(), mb.Queue, mb.ColdStart, mb.Processing, mb.CodeLoad, mb.Exec, mb.Post)
		}
	}
	put(float64(res.Variant), float64(res.Events), res.MeterCPUSeconds)
	for _, name := range sortedKeys(res.Services) {
		sr := res.Services[name]
		putCollector(sr.Collector)
		iu, su := sr.IaaSUsage, sr.ServerlessUsage
		put(iu.CPU, iu.MemMB, iu.DiskMBs, iu.NetMbs, su.CPU, su.MemMB, su.DiskMBs, su.NetMbs)
		put(sr.ConsumedCPUSeconds, float64(len(sr.Decisions)), float64(sr.BlockedSwitches))
		for _, s := range sr.Timeline.Switches {
			put(s.At, float64(s.To), s.LoadQPS)
		}
		fw := sr.FinalWeights
		put(fw.W[0], fw.W[1], fw.W[2], fw.Intercept)
	}
	for _, name := range sortedKeys(res.Background) {
		putCollector(res.Background[name])
	}
	return h.Sum64()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func medianOf(ps []passResult, f func(passResult) float64) float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	return median(xs)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}
