package experiments

import (
	"amoeba/internal/arrival"
	"amoeba/internal/metrics"
	"amoeba/internal/report"
	"amoeba/internal/serverless"
	"amoeba/internal/sim"
	"amoeba/internal/trace"
	"amoeba/internal/workload"
)

// Fig04Row is one benchmark's warm-path latency anatomy on the serverless
// platform, as fractions of end-to-end latency.
type Fig04Row struct {
	Benchmark    string
	Mean         metrics.Breakdown // absolute seconds
	ProcessingF  float64
	CodeLoadF    float64
	ExecF        float64
	PostF        float64
	OverheadFrac float64 // everything but Exec — the paper's 10–45%
}

// Fig04Result reproduces paper Fig. 4: the latency breakdown of queries
// executed on the serverless platform (queueing and cold start excluded,
// exactly as the paper's measurement).
type Fig04Result struct {
	Rows []Fig04Row
}

// Fig04 runs the experiment. It panics if the config fails validation.
func Fig04(cfg Config) *Fig04Result {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	res := &Fig04Result{}
	for _, prof := range cfg.benchmarks() {
		res.Rows = append(res.Rows, fig04One(cfg, prof))
	}
	return res
}

func fig04One(cfg Config, prof workload.Profile) Fig04Row {
	s := sim.New(cfg.Seed ^ sim.HashName(prof.Name+"/fig4"))
	pool := serverless.New(s, serverless.DefaultConfig())
	coll := metrics.NewCollector(prof.Name, prof.QoSTarget)
	pool.Register(prof, func(r metrics.QueryRecord) {
		if r.Breakdown.ColdStart == 0 && r.Breakdown.Queue == 0 {
			coll.Observe(r) // warm, un-queued path only (paper's setup)
		}
	}, serverless.WithNMax(64))

	load := prof.PeakQPS * 0.3
	pool.Prewarm(prof.Name, int(load*prof.ExecTime*3)+2, nil)
	inv := pool.Bind(prof.Name)
	gen := arrival.New(s, trace.Constant{QPS: load}, func(sim.Time) { inv.Invoke() })
	s.At(8, func() { gen.Start() })
	dur := 180.0
	if cfg.Quick {
		dur = 90
	}
	s.Run(sim.Time(8 + dur))

	mb := coll.MeanBreakdown()
	total := mb.Total()
	return Fig04Row{
		Benchmark:    prof.Name,
		Mean:         mb,
		ProcessingF:  mb.Processing / total,
		CodeLoadF:    mb.CodeLoad / total,
		ExecF:        mb.Exec / total,
		PostF:        mb.Post / total,
		OverheadFrac: (total - mb.Exec) / total,
	}
}

// Render formats the result as a table.
func (r *Fig04Result) Render() *report.Table {
	t := report.NewTable("Fig. 4: latency breakdown on the serverless platform",
		"benchmark", "processing", "code_load", "execution", "result_post", "overhead_total")
	for _, row := range r.Rows {
		t.AddRow(row.Benchmark, pct(row.ProcessingF), pct(row.CodeLoadF),
			pct(row.ExecF), pct(row.PostF), pct(row.OverheadFrac))
	}
	return t
}
