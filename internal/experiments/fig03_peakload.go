package experiments

import (
	"amoeba/internal/arrival"
	"amoeba/internal/iaas"
	"amoeba/internal/metrics"
	"amoeba/internal/report"
	"amoeba/internal/serverless"
	"amoeba/internal/sim"
	"amoeba/internal/trace"
	"amoeba/internal/workload"
)

// Fig03Row is one benchmark's sustainable peak loads.
type Fig03Row struct {
	Benchmark      string
	IaaSPeakQPS    float64
	SvlessPeakQPS  float64
	Ratio          float64 // serverless / IaaS, the paper's 73.9%–89.2%
	EqualResources int     // slots == containers used for both platforms
}

// Fig03Result reproduces paper Fig. 3: the achievable peak load of each
// benchmark under serverless deployment normalised to IaaS with the same
// resources. Both peaks are found by bisection on a constant-rate load:
// the largest QPS whose 95%-ile latency stays within the QoS target.
type Fig03Result struct {
	Rows []Fig03Row
}

// Fig03 runs the experiment. It panics if the config fails validation.
func Fig03(cfg Config) *Fig03Result {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	res := &Fig03Result{}
	for _, prof := range cfg.benchmarks() {
		res.Rows = append(res.Rows, fig03One(cfg, prof))
	}
	return res
}

func fig03One(cfg Config, prof workload.Profile) Fig03Row {
	// Equalise resources: the serverless side gets exactly as many
	// containers as the IaaS side has worker slots.
	slots := iaas.ProvisionSlots(prof)
	dur := 240.0
	if cfg.Quick {
		dur = 120
	}

	iaasOK := func(qps float64) bool {
		s := sim.New(cfg.Seed ^ sim.HashName(prof.Name+"/iaas"))
		vms := iaas.New(s)
		coll := metrics.NewCollector(prof.Name, prof.QoSTarget)
		vms.Deploy(prof, coll.Observe)
		inv := vms.Bind(prof.Name)
		gen := arrival.New(s, trace.Constant{QPS: qps}, func(sim.Time) { inv.Invoke() })
		gen.Start()
		s.Run(sim.Time(dur))
		return coll.Count() > 0 && coll.QoSMet()
	}
	svlessOK := func(qps float64) bool {
		s := sim.New(cfg.Seed ^ sim.HashName(prof.Name+"/svless"))
		pool := serverless.New(s, serverless.DefaultConfig())
		coll := metrics.NewCollector(prof.Name, prof.QoSTarget)
		pool.Register(prof, coll.Observe, serverless.WithNMax(slots))
		// Warm the pool first: peak-load capability is a warm-path
		// question; Fig. 4 accounts the overheads separately.
		pool.Prewarm(prof.Name, slots, nil)
		inv := pool.Bind(prof.Name)
		gen := arrival.New(s, trace.Constant{QPS: qps}, func(sim.Time) { inv.Invoke() })
		started := false
		s.At(8, func() { gen.Start(); started = true })
		s.Run(sim.Time(8 + dur))
		if !started {
			// The generator must have started inside the horizon, or the
			// QoS check below trivially passes on zero queries.
			//amoeba:allow panic a simulator that drops a scheduled event is a bug, not a config error
			panic("fig03: load generator never started before the run horizon")
		}
		return coll.Count() > 0 && coll.QoSMet()
	}

	hi := prof.PeakQPS * 3
	iaasPeak := bisectPeak(iaasOK, hi)
	svlessPeak := bisectPeak(svlessOK, hi)
	ratio := 0.0
	if iaasPeak > 0 {
		ratio = svlessPeak / iaasPeak
	}
	return Fig03Row{
		Benchmark:      prof.Name,
		IaaSPeakQPS:    iaasPeak,
		SvlessPeakQPS:  svlessPeak,
		Ratio:          ratio,
		EqualResources: slots,
	}
}

// bisectPeak finds the largest admissible QPS in (0, hi] for a monotone
// predicate within ~2% relative precision.
func bisectPeak(ok func(qps float64) bool, hi float64) float64 {
	lo := 0.0
	if !ok(hi * 0.01) {
		return 0
	}
	lo = hi * 0.01
	if ok(hi) {
		return hi
	}
	for i := 0; i < 12; i++ {
		mid := (lo + hi) / 2
		if ok(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// Render formats the result as a table.
func (r *Fig03Result) Render() *report.Table {
	t := report.NewTable("Fig. 3: serverless peak load normalised to IaaS (same resources)",
		"benchmark", "resources", "iaas_peak_qps", "serverless_peak_qps", "ratio")
	for _, row := range r.Rows {
		t.AddRow(row.Benchmark, row.EqualResources, row.IaaSPeakQPS, row.SvlessPeakQPS, pct(row.Ratio))
	}
	return t
}
