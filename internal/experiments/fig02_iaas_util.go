package experiments

import (
	"math"

	"amoeba/internal/arrival"
	"amoeba/internal/iaas"
	"amoeba/internal/metrics"
	"amoeba/internal/report"
	"amoeba/internal/sim"
	"amoeba/internal/workload"
)

// Fig02Row is one benchmark's CPU utilisation under IaaS deployment.
type Fig02Row struct {
	Benchmark     string
	Slots         int
	Lowest        float64
	Average       float64
	Highest       float64
	QoSMet        bool
	P95OverTarget float64
}

// Fig02Result reproduces paper Fig. 2: the lowest/average/highest CPU
// utilisation of each benchmark deployed on just-enough IaaS under the
// diurnal load. Utilisation is consumed cores over allocated cores,
// sampled in windows.
type Fig02Result struct {
	Rows []Fig02Row
}

// Fig02 runs the experiment. It panics if the config fails validation.
func Fig02(cfg Config) *Fig02Result {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	res := &Fig02Result{}
	for _, prof := range cfg.benchmarks() {
		res.Rows = append(res.Rows, fig02One(cfg, prof))
	}
	return res
}

func fig02One(cfg Config, prof workload.Profile) Fig02Row {
	s := sim.New(cfg.Seed ^ sim.HashName(prof.Name))
	vms := iaas.New(s)
	coll := metrics.NewCollector(prof.Name, prof.QoSTarget)
	vms.Deploy(prof, coll.Observe)

	inv := vms.Bind(prof.Name)
	gen := arrival.New(s, cfg.diurnalFor(prof), func(sim.Time) { inv.Invoke() })
	gen.Start()

	// Sample windowed utilisation: consumed core-seconds per window over
	// the constant allocation.
	window := 60.0
	lastConsumed := 0.0
	lo, hi, sum := math.Inf(1), 0.0, 0.0
	n := 0
	s.Every(window, func() {
		consumed := vms.ConsumedCPUSeconds(prof.Name)
		alloc := vms.AllocFor(prof.Name).CPU
		u := (consumed - lastConsumed) / (alloc * window)
		lastConsumed = consumed
		if u < lo {
			lo = u
		}
		if u > hi {
			hi = u
		}
		sum += u
		n++
	})
	s.Run(sim.Time(cfg.horizon()))

	row := Fig02Row{
		Benchmark: prof.Name,
		Slots:     vms.Slots(prof.Name),
		Lowest:    lo,
		Average:   sum / float64(n),
		Highest:   hi,
	}
	if coll.Count() > 0 {
		row.QoSMet = coll.QoSMet()
		row.P95OverTarget = coll.P95() / prof.QoSTarget
	}
	return row
}

// Render formats the result as a table.
func (r *Fig02Result) Render() *report.Table {
	t := report.NewTable("Fig. 2: CPU utilisation with IaaS-based deployment",
		"benchmark", "slots", "lowest", "average", "highest", "qos_met")
	for _, row := range r.Rows {
		t.AddRow(row.Benchmark, row.Slots, pct(row.Lowest), pct(row.Average), pct(row.Highest), row.QoSMet)
	}
	return t
}
