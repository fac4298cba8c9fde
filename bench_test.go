// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation (§VII), plus ablations of the design decisions
// called out in DESIGN.md. Each benchmark regenerates the corresponding
// artifact and reports the headline measurements as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's result set end to end. Results are deterministic
// per seed; wall-clock time measures the simulator, not the metrics.
package amoeba_test

import (
	"fmt"
	"io"
	"math"
	"testing"

	"amoeba/internal/contention"
	"amoeba/internal/controller"
	"amoeba/internal/core"
	"amoeba/internal/experiments"
	"amoeba/internal/monitor"
	"amoeba/internal/obs"
	"amoeba/internal/queueing"
	"amoeba/internal/serverless"
	"amoeba/internal/sim"
	"amoeba/internal/stats"
	"amoeba/internal/trace"
	"amoeba/internal/units"
	"amoeba/internal/workload"
)

func benchCfg() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Quick = true
	return cfg
}

// benchSuite is shared across benchmarks so figure targets that reuse the
// same scenario runs (Fig. 10/11/12/13/14/16) do not re-simulate.
var benchSuite = experiments.NewSuite(benchCfg())

func BenchmarkTableIISetup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.TableII().Rows() == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTableIIIBenchmarks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.TableIII().Rows() != 5 {
			b.Fatal("wrong benchmark count")
		}
	}
}

func BenchmarkFig02IaaSUtilization(b *testing.B) {
	var last *experiments.Fig02Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig02(benchCfg())
	}
	lo, hi := 1.0, 0.0
	for _, r := range last.Rows {
		if r.Lowest < lo {
			lo = r.Lowest
		}
		if r.Highest > hi {
			hi = r.Highest
		}
	}
	b.ReportMetric(lo*100, "min_util_%")
	b.ReportMetric(hi*100, "max_util_%")
}

func BenchmarkFig03PeakLoad(b *testing.B) {
	var last *experiments.Fig03Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig03(benchCfg())
	}
	sum := 0.0
	for _, r := range last.Rows {
		sum += r.Ratio
	}
	b.ReportMetric(sum/float64(len(last.Rows))*100, "svless_peak_%of_iaas")
}

func BenchmarkFig04Breakdown(b *testing.B) {
	var last *experiments.Fig04Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig04(benchCfg())
	}
	lo, hi := 1.0, 0.0
	for _, r := range last.Rows {
		if r.OverheadFrac < lo {
			lo = r.OverheadFrac
		}
		if r.OverheadFrac > hi {
			hi = r.OverheadFrac
		}
	}
	b.ReportMetric(lo*100, "min_overhead_%")
	b.ReportMetric(hi*100, "max_overhead_%")
}

func BenchmarkFig08MeterCurves(b *testing.B) {
	var last *experiments.Fig08Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig08(benchCfg())
	}
	c := last.Curves[0]
	b.ReportMetric(c.Latencies[len(c.Latencies)-1]/c.Latencies[0], "cpu_meter_latency_rise_x")
}

func BenchmarkFig09Surfaces(b *testing.B) {
	var last *experiments.Fig09Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig09Default(benchCfg())
	}
	sf := last.Set.Surfaces[1] // dd's IO surface
	b.ReportMetric(sf.Lat[len(sf.Pressures)-1][0]/sf.Lat[0][0], "dd_io_surface_rise_x")
}

func BenchmarkFig10LatencyCDF(b *testing.B) {
	var last *experiments.Fig10Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig10(benchSuite)
	}
	violators := 0
	for _, e := range last.Entries {
		if e.System == core.VariantOpenWhisk && !e.QoSMet {
			violators++
		}
	}
	b.ReportMetric(float64(violators), "openwhisk_violations")
}

func BenchmarkFig11ResourceUsage(b *testing.B) {
	var last *experiments.Fig11Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig11(benchSuite)
	}
	maxCPU, maxMem := 0.0, 0.0
	for _, r := range last.Rows {
		if r.CPUSavedFrac > maxCPU {
			maxCPU = r.CPUSavedFrac
		}
		if r.MemSavedFrac > maxMem {
			maxMem = r.MemSavedFrac
		}
	}
	b.ReportMetric(maxCPU*100, "max_cpu_saved_%")
	b.ReportMetric(maxMem*100, "max_mem_saved_%")
}

func BenchmarkFig12SwitchTimeline(b *testing.B) {
	var last *experiments.Fig12Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig12(benchSuite)
	}
	switches := 0
	for _, tl := range last.Timelines {
		switches += tl.ToServerless + tl.ToIaaS
	}
	b.ReportMetric(float64(switches), "switches")
}

func BenchmarkFig13UsageTimeline(b *testing.B) {
	var last *experiments.Fig13Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig13(benchSuite)
	}
	b.ReportMetric(float64(len(last.Timelines[0].Snapshots)), "snapshots")
}

func BenchmarkFig14AmoebaNoM(b *testing.B) {
	var last *experiments.Fig14Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig14(benchSuite)
	}
	maxCPU, maxMem := 0.0, 0.0
	for _, r := range last.Rows {
		if r.CPUIncrease > maxCPU {
			maxCPU = r.CPUIncrease
		}
		if r.MemIncrease > maxMem {
			maxMem = r.MemIncrease
		}
	}
	b.ReportMetric(maxCPU, "nom_cpu_increase_x")
	b.ReportMetric(maxMem, "nom_mem_increase_x")
}

func BenchmarkFig15DiscriminantError(b *testing.B) {
	var last *experiments.Fig15Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig15(benchSuite)
	}
	var sumA, sumN float64
	for _, r := range last.Rows {
		sumA += r.AmoebaErr
		sumN += r.NoMErr
	}
	n := float64(len(last.Rows))
	b.ReportMetric(sumA/n*100, "amoeba_err_%")
	b.ReportMetric(sumN/n*100, "nom_err_%")
}

func BenchmarkFig16AmoebaNoP(b *testing.B) {
	var last *experiments.Fig16Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig16(benchSuite)
	}
	hi := 0.0
	for _, r := range last.Rows {
		if r.ViolationFrac > hi {
			hi = r.ViolationFrac
		}
	}
	b.ReportMetric(hi*100, "max_nop_violation_%")
}

func BenchmarkOverheadMeters(b *testing.B) {
	var last *experiments.OverheadResult
	for i := 0; i < b.N; i++ {
		last = experiments.Overhead(benchSuite)
	}
	total := 0.0
	for _, r := range last.Rows {
		total += r.AnalyticFrac
	}
	b.ReportMetric(total*100, "meters_cpu_%")
}

// BenchmarkExtElasticity regenerates the extension comparison of Amoeba
// against a Kubernetes-style VM autoscaler.
func BenchmarkExtElasticity(b *testing.B) {
	var last *experiments.ElasticityResult
	for i := 0; i < b.N; i++ {
		last = experiments.Elasticity(benchSuite)
	}
	var amoebaViol, autoscaleViol float64
	for _, r := range last.Rows {
		amoebaViol += r.AmoebaViolations
		autoscaleViol += r.AutoscaleViolations
	}
	n := float64(len(last.Rows))
	b.ReportMetric(amoebaViol/n*100, "amoeba_violation_%")
	b.ReportMetric(autoscaleViol/n*100, "autoscale_violation_%")
}

// --- Ablation benches (DESIGN.md §5) ---

// BenchmarkAblationDiscriminant compares the closed-form Eq. 5 against the
// bisection the controller actually uses.
func BenchmarkAblationDiscriminant(b *testing.B) {
	const mu, n, td, r = 4.0, 10, 0.4, 0.95
	var cf, bs units.QPS
	for i := 0; i < b.N; i++ {
		bs = queueing.DiscriminantBisect(mu, n, td, r)
		q := queueing.MMN{Lambda: bs.Raw(), Mu: mu, N: n}
		cf = queueing.DiscriminantClosedForm(q, td, r)
	}
	b.ReportMetric(bs.Raw(), "bisect_qps")
	b.ReportMetric(cf.Raw(), "closed_form_qps")
}

// BenchmarkAblationInterferenceModel quantifies the additive-vs-q-norm gap
// that gives Amoeba-NoM its pessimism.
func BenchmarkAblationInterferenceModel(b *testing.B) {
	model := contention.NewModel(serverless.DefaultConfig().Node.Capacity())
	s := workload.DD().Sensitivity
	p := contention.Pressure{CPU: 0.5, IO: 0.5, Net: 0.3}
	var truth, additive float64
	for i := 0; i < b.N; i++ {
		truth = model.Slowdown(p, s)
		additive = model.AdditiveSlowdown(p, s)
	}
	b.ReportMetric(truth, "qnorm_slowdown")
	b.ReportMetric(additive, "additive_slowdown")
}

// BenchmarkAblationWeights compares admissible loads predicted with w0
// versus calibrated weights under a fixed contention point.
func BenchmarkAblationWeights(b *testing.B) {
	prof := workload.DD()
	slCfg := serverless.DefaultConfig()
	set := core.SurfaceSet(prof, slCfg)
	pred, err := controller.NewPredictor(prof, set, 10, 0.95)
	if err != nil {
		b.Fatal(err)
	}
	learned := monitor.Weights{W: [3]float64{0.3, 0.8, 0.1}, Learned: true}
	pressure := [3]float64{0.2, 0.3, 0.1}
	var admW0, admL units.QPS
	for i := 0; i < b.N; i++ {
		admW0 = pred.AdmissibleLoad(monitor.InitialWeights(), pressure)
		admL = pred.AdmissibleLoad(learned, pressure)
	}
	b.ReportMetric(admW0.Raw(), "w0_admissible_qps")
	b.ReportMetric(admL.Raw(), "calibrated_admissible_qps")
}

// --- Kernel benches (DESIGN.md §10) ---

// BenchmarkScenarioRun measures end-to-end simulation throughput of one
// full Amoeba scenario (dd, quick day). events/s is the headline number
// pinned in BENCH_sim.json: it is the rate every figure reproduction and
// sweep is bottlenecked on.
func BenchmarkScenarioRun(b *testing.B) {
	prof := workload.DD()
	cfg := benchCfg()
	var events uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.Run(benchScenario(cfg, prof, core.VariantAmoeba))
		events = res.Events
	}
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkScenarioSharded measures the sharded kernel on the paper
// grid at fixed shard counts: the five benchmarks, each on its own
// diurnal 600 s day, beside the three background tenants — 9 cells with
// the monitor daemon. shards-1 is the single-worker baseline pinned in
// BENCH_sim.json; the scale-up at shards-2/4/8 is only meaningful on
// hardware with that many idle cores, which is why BENCH_sim.json states
// the core count of every row it records.
func BenchmarkScenarioSharded(b *testing.B) {
	const day, seed = 600, 0xA0EBA
	var svcs []core.ServiceSpec
	for i, prof := range workload.All() {
		svcs = append(svcs, core.ServiceSpec{
			Profile: prof,
			Trace:   trace.NewDiurnal(prof.PeakQPS, prof.PeakQPS*0.2, day, seed+uint64(i)),
		})
	}
	sc := core.Scenario{
		Variant:    core.VariantAmoeba,
		Services:   svcs,
		Background: core.BackgroundTenants(day, seed+7),
		Duration:   day,
		Seed:       seed,
	}
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			var events uint64
			for i := 0; i < b.N; i++ {
				events = core.RunSharded(sc, shards).Events
			}
			b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkSuiteParallel measures sweep throughput of the parallel
// experiment driver at fixed worker counts. Each iteration sweeps a
// fresh suite — the memo would absorb all work after the first pass —
// so events/s is the end-to-end rate of |benchmarks| x |variants|
// independent simulations through the bounded pool. parallel-1 is the
// single-threaded baseline pinned in BENCH_sim.json (it must not
// regress against BenchmarkScenarioRun's rate); the scale-up at
// parallel-2/4/8 is only meaningful on hardware with that many idle
// cores, which is why BENCH_sim.json records hand-refreshed numbers
// from quiet multi-core hardware rather than CI measurements.
func BenchmarkSuiteParallel(b *testing.B) {
	cfg := benchCfg()
	cfg.DayLength = 600 // one sweep = 4 quick sims; keeps an iteration short
	variants := []core.Variant{core.VariantAmoeba, core.VariantNameko}
	profs := []workload.Profile{workload.Float(), workload.DD()} // quick-mode benchmarks
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parallel-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var events uint64
			for i := 0; i < b.N; i++ {
				s := experiments.NewSuite(cfg)
				s.Parallel = workers
				if err := s.Sweep(variants...); err != nil {
					b.Fatal(err)
				}
				events = 0
				for _, prof := range profs {
					for _, v := range variants {
						events += s.Run(prof, v).Events
					}
				}
			}
			b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// --- Telemetry benches (DESIGN.md §9) ---

// recordStream records every event of a 300 s Amoeba day on dd with
// the background tenants: all seven kinds in their real mix and with
// their real values.
func recordStream(b *testing.B) []obs.Event {
	cfg := benchCfg()
	cfg.DayLength = 300
	sc := benchScenario(cfg, workload.DD(), core.VariantAmoeba)
	rec := obs.NewBuffer()
	sc.Bus = obs.NewBus()
	sc.Bus.Attach(rec)
	core.Run(sc)
	events := rec.Events()
	kinds := map[obs.Kind]bool{}
	for _, ev := range events {
		kinds[ev.EventKind()] = true
	}
	if len(kinds) != 7 {
		b.Fatalf("recorded stream has %d of the 7 kinds", len(kinds))
	}
	return events
}

// BenchmarkEventEmit measures the per-event cost of the obs bus: the
// guarded no-sink path (which must stay allocation-free — the event
// literal is never constructed), a ring sink, the metrics-folding sink,
// and the JSONL writer. Results are recorded in BENCH_obs.json.
//
//amoeba:alloctest obs.Bus.Active obs.Bus.Emit
func BenchmarkEventEmit(b *testing.B) {
	var events []obs.Event // recordStream's, on first use
	recorded := func(b *testing.B) []obs.Event {
		if events == nil {
			events = recordStream(b)
		}
		return events
	}
	mkEvent := func(bus *obs.Bus, i int) {
		if bus.Active() {
			bus.Emit(&obs.QueryComplete{
				At:      units.Seconds(float64(i)),
				Service: "dd",
				Backend: "serverless",
				Latency: 0.0123,
			})
		}
	}
	b.Run("no-sink", func(b *testing.B) {
		var bus *obs.Bus
		if avg := testing.AllocsPerRun(1000, func() { mkEvent(bus, 1) }); avg != 0 {
			b.Fatalf("no-sink emit allocates %.1f objects per event; the guard must be free", avg)
		}
		b.ReportAllocs()
		b.ResetTimer() // the probe's closure is set-up, not an emit
		for i := 0; i < b.N; i++ {
			mkEvent(bus, i)
		}
	})
	b.Run("ring", func(b *testing.B) {
		bus := obs.NewBus()
		bus.Attach(obs.NewRing(1 << 12))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mkEvent(bus, i)
		}
	})
	b.Run("metrics", func(b *testing.B) {
		// The metrics sink folding the recorded stream. One pass over it
		// before the timer interns every series, so this prices the
		// steady-state fold alone: no event construction and, as
		// TestZeroAllocMetricsFold pins, no allocation.
		events := recorded(b)
		bus := obs.NewBus()
		bus.Attach(obs.NewMetricsSink(obs.NewRegistry()))
		for _, ev := range events {
			bus.Emit(ev)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i, j := 0, 0; i < b.N; i++ {
			bus.Emit(events[j])
			if j++; j == len(events) {
				j = 0
			}
		}
	})
	b.Run("jsonl", func(b *testing.B) {
		// The JSONL writer replaying the recorded stream. Recording
		// happens before the timer, so this prices the writer's
		// pipeline, not event construction: the copy into a batch on the
		// caller's goroutine, and the encoding and write into io.Discard
		// on the writer's own, which overlap. The final Err waits for the
		// last batch, so on two or more cores ns/op is the slower of the
		// two halves per event. One priming pass fills each of the
		// writer's 4 batches of 512 events (obs's batchCount and batchLen)
		// once, so no batch grows inside the timer; it does not Flush,
		// since the hand-off after a flush starts a new encoder goroutine.
		// The encoder may still be writing the primed events when the
		// timer starts, which weighs on ns/op only at small b.N.
		events := recorded(b)
		bus := obs.NewBus()
		w := obs.NewJSONLWriter(io.Discard)
		bus.Attach(w)
		const prime = 4 * 512
		for i := 0; i < prime; i++ {
			bus.Emit(events[i%len(events)])
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := prime; i < prime+b.N; i++ {
			bus.Emit(events[i%len(events)])
		}
		if w.Err() != nil {
			b.Fatal(w.Err())
		}
	})
	b.Run("span-no-sink", func(b *testing.B) {
		// The causal-tracing analogue of no-sink: a full query span cycle
		// (trace allocation, Begin, End) against a sinkless tracer must
		// stay allocation-free — tracing off costs one branch per site.
		tr := obs.NewTracer(nil)
		cycle := func() {
			qt := tr.StartQuery("dd")
			h := tr.Begin(1, qt.Trace, qt.Span, 0, obs.PhaseExec, "dd", "serverless")
			tr.End(2, h)
		}
		if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
			b.Fatalf("unobserved span cycle allocates %.1f objects; the guard must be free", avg)
		}
		b.ReportAllocs()
		b.ResetTimer() // the tracer, the closure and the probe are set-up
		for i := 0; i < b.N; i++ {
			cycle()
		}
	})
}

// BenchmarkHistogramVsSample compares the bounded log-linear histogram
// against the exact sorted sample on the same log-uniform latency data:
// ingest throughput, p95 agreement, and memory behaviour (the histogram
// is O(buckets), the sample O(n)).
func BenchmarkHistogramVsSample(b *testing.B) {
	rng := sim.New(7).RNG()
	vals := make([]float64, 1<<16)
	for i := range vals {
		// Log-uniform over [1ms, 10s] — the latency range the sink covers.
		vals[i] = 1e-3 * math.Exp(rng.Float64()*math.Log(1e4))
	}
	var hp95, sp95 float64
	b.Run("histogram", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h := obs.NewHistogram(1e-3, 100, 32)
			for _, v := range vals {
				h.Observe(v)
			}
			hp95 = h.P95()
		}
		b.ReportMetric(float64(len(vals))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mobs/s")
	})
	b.Run("sample", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := stats.NewSample(len(vals))
			for _, v := range vals {
				s.Add(v)
			}
			sp95 = s.P95()
		}
		b.ReportMetric(float64(len(vals))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mobs/s")
	})
	rel := (hp95 - sp95) / sp95
	if rel < 0 {
		rel = -rel
	}
	if rel > 2.0/32 {
		b.Fatalf("histogram p95 %.5f vs exact %.5f: rel err %.4f beyond bound", hp95, sp95, rel)
	}
	b.ReportMetric(rel*100, "p95_rel_err_%")
}

func benchScenario(cfg experiments.Config, prof workload.Profile, v core.Variant) core.Scenario {
	return core.Scenario{
		Variant: v,
		Services: []core.ServiceSpec{{
			Profile: prof,
			Trace: trace.NewDiurnal(prof.PeakQPS, prof.PeakQPS*cfg.TroughFraction.Raw(),
				cfg.DayLength.Raw(), cfg.Seed),
		}},
		Background: core.BackgroundTenants(cfg.DayLength, cfg.Seed+7),
		Duration:   cfg.DayLength,
		Seed:       cfg.Seed,
	}
}
