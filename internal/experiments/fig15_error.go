package experiments

import (
	"math"

	"amoeba/internal/arrival"
	"amoeba/internal/controller"
	"amoeba/internal/core"
	"amoeba/internal/metrics"
	"amoeba/internal/monitor"
	"amoeba/internal/report"
	"amoeba/internal/resources"
	"amoeba/internal/serverless"
	"amoeba/internal/sim"
	"amoeba/internal/trace"
	"amoeba/internal/units"
	"amoeba/internal/workload"
)

// Fig15Row is one benchmark's discriminant error.
type Fig15Row struct {
	Benchmark string
	// Mean relative error |λ(μ_n) − λ_real| / λ_real over the probed
	// contention points, for calibrated (Amoeba) and additive (NoM)
	// weights. The paper reports 2.8–8.3% vs 9.1–25.8%.
	AmoebaErr float64
	NoMErr    float64
	// Per-point detail.
	Points []Fig15Point
}

// Fig15Point is one ambient-contention operating point.
type Fig15Point struct {
	Pressure  [3]float64
	RealQPS   float64
	AmoebaQPS float64
	NoMQPS    float64
}

// Fig15Result reproduces paper Fig. 15: the average error of the
// discriminant function λ(μ_n) against the real switch point λ_real
// found by enumeration, with and without the PCA correction.
type Fig15Result struct {
	Rows []Fig15Row
}

// fig15Pressures are the ambient contention points probed per benchmark.
func fig15Pressures() [][3]float64 {
	return [][3]float64{
		{0.10, 0.10, 0.05},
		{0.25, 0.25, 0.15},
		{0.10, 0.40, 0.10},
	}
}

// Fig15 runs the experiment. Calibrated weights come from the suite's
// Amoeba runs (the monitor's state at the end of a full day).
func Fig15(s *Suite) *Fig15Result {
	res := &Fig15Result{}
	for _, prof := range s.Cfg.benchmarks() {
		res.Rows = append(res.Rows, fig15One(s, prof))
	}
	return res
}

func fig15One(s *Suite, prof workload.Profile) Fig15Row {
	slCfg := serverless.DefaultConfig()
	set := core.SurfaceSet(prof, slCfg)
	nMax := slCfg.NMax()
	pred, err := controller.NewPredictor(prof, set, nMax, units.Fraction(0.95))
	if err != nil {
		//amoeba:allow panic suite config was validated by NewSuite
		panic(err)
	}

	calibrated := s.Service(prof, core.VariantAmoeba).FinalWeights
	w0 := monitor.InitialWeights()

	row := Fig15Row{Benchmark: prof.Name}
	var errA, errN float64
	n := 0
	for _, p := range fig15Pressures() {
		real := fig15RealSwitchPoint(s.Cfg, prof, slCfg, nMax, p)
		if real <= 0 {
			continue // QoS unreachable at this point; no error defined
		}
		pt := Fig15Point{
			Pressure:  p,
			RealQPS:   real,
			AmoebaQPS: pred.AdmissibleLoad(calibrated, p).Raw(),
			NoMQPS:    pred.AdmissibleLoad(w0, p).Raw(),
		}
		row.Points = append(row.Points, pt)
		errA += math.Abs(pt.AmoebaQPS-real) / real
		errN += math.Abs(pt.NoMQPS-real) / real
		n++
	}
	if n > 0 {
		row.AmoebaErr = errA / float64(n)
		row.NoMErr = errN / float64(n)
	}
	return row
}

// fig15RealSwitchPoint enumerates λ_real: the largest constant QPS whose
// end-to-end p95 stays within the QoS target on the serverless platform
// under the given ambient pressure.
func fig15RealSwitchPoint(cfg Config, prof workload.Profile, slCfg serverless.Config,
	nMax int, pressure [3]float64) float64 {

	dur := 240.0
	if cfg.Quick {
		dur = 120
	}
	cap := slCfg.Node.Capacity()
	ok := func(qps float64) bool {
		s := sim.New(cfg.Seed ^ sim.HashName(prof.Name+"/fig15"))
		pool := serverless.New(s, slCfg)
		coll := metrics.NewCollector(prof.Name, prof.QoSTarget)
		pool.Register(prof, coll.Observe, serverless.WithNMax(nMax))
		pool.InjectDemand(resources.Vector{
			CPU:     pressure[0] * cap.CPU,
			DiskMBs: pressure[1] * cap.DiskMBs,
			NetMbs:  pressure[2] * cap.NetMbs,
		})
		pool.Prewarm(prof.Name, nMax, nil)
		inv := pool.Bind(prof.Name)
		gen := arrival.New(s, trace.Constant{QPS: qps}, func(sim.Time) { inv.Invoke() })
		s.At(8, func() { gen.Start() })
		s.Run(sim.Time(8 + dur))
		return coll.Count() > 0 && coll.QoSMet()
	}
	return bisectPeak(ok, prof.PeakQPS*2)
}

// Render formats the result as a table.
func (r *Fig15Result) Render() *report.Table {
	t := report.NewTable("Fig. 15: discriminant error vs enumerated switch point (smaller is better)",
		"benchmark", "amoeba_err", "nom_err", "points")
	for _, row := range r.Rows {
		t.AddRow(row.Benchmark, pct(row.AmoebaErr), pct(row.NoMErr), len(row.Points))
	}
	return t
}
