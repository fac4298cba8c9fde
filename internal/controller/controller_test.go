package controller

import (
	"math"
	"testing"

	"amoeba/internal/metrics"
	"amoeba/internal/monitor"
	"amoeba/internal/queueing"
	"amoeba/internal/surfaces"
	"amoeba/internal/units"
	"amoeba/internal/workload"
)

// syntheticSet builds an analytic surface set: body latency inflates
// linearly with pressure on each resource, scaled by the profile's
// sensitivity, independent of load.
func syntheticSet(prof workload.Profile, slopes [3]float64) *surfaces.Set {
	set := &surfaces.Set{Service: prof.Name}
	grid := []float64{0, 0.25, 0.5, 0.75, 1.0}
	loads := []float64{prof.PeakQPS * 0.02, prof.PeakQPS * 0.3, prof.PeakQPS * 0.6}
	for r := 0; r < 3; r++ {
		lat := make([][]float64, len(grid))
		for i, p := range grid {
			lat[i] = make([]float64, len(loads))
			for j := range loads {
				lat[i][j] = prof.ExecTime * (1 + slopes[r]*p)
			}
		}
		set.Surfaces[r] = &surfaces.Surface{
			Service: prof.Name, Resource: r,
			Pressures: grid, Loads: loads, Lat: lat,
		}
	}
	return set
}

func testPredictor(t *testing.T) *Predictor {
	t.Helper()
	prof := workload.Float()
	p, err := NewPredictor(prof, syntheticSet(prof, [3]float64{0.6, 0.0, 0.1}), 10, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustNew(t *testing.T, cfg Config, pred *Predictor) *Controller {
	t.Helper()
	c, err := New(cfg, pred)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFeaturesFromSurfaces(t *testing.T) {
	p := testPredictor(t)
	e := p.Features([3]float64{0.5, 0.5, 0.5}, 10)
	if math.Abs(e[0]-0.3) > 1e-9 { // slope 0.6 × pressure 0.5
		t.Errorf("e[0] = %v, want 0.3", e[0])
	}
	if e[1] != 0 {
		t.Errorf("e[1] = %v, want 0 (insensitive)", e[1])
	}
	if math.Abs(e[2]-0.05) > 1e-9 {
		t.Errorf("e[2] = %v, want 0.05", e[2])
	}
	// Zero pressure → zero features.
	for _, v := range p.Features([3]float64{}, 10) {
		if v != 0 {
			t.Errorf("features at zero pressure: %v", v)
		}
	}
}

func TestMuEq6(t *testing.T) {
	p := testPredictor(t)
	prof := p.Profile
	// No contention, calibrated weights with no correction:
	// μ = 1/(L0 + α).
	neutral := monitor.Weights{W: [3]float64{1, 1, 1}, Learned: true}
	mu0 := p.Mu(neutral, [3]float64{}, 10)
	want := 1 / (prof.ExecTime + prof.Overheads.Total())
	if math.Abs(mu0.Raw()-want) > 1e-9 {
		t.Errorf("mu at zero pressure = %v, want %v", mu0, want)
	}
	// w0's safety floor lowers μ even without contention.
	if mu := p.Mu(monitor.InitialWeights(), [3]float64{}, 10); mu >= mu0 {
		t.Errorf("pessimistic w0 mu %v not below neutral mu %v", mu, mu0)
	}
	// Contention reduces μ monotonically.
	prev := mu0
	for _, pr := range []float64{0.2, 0.5, 0.8, 1.0} {
		mu := p.Mu(monitor.InitialWeights(), [3]float64{pr, 0, 0}, 10)
		if mu >= prev {
			t.Errorf("mu not decreasing in pressure at %v: %v >= %v", pr, mu, prev)
		}
		prev = mu
	}
}

func TestAdmissibleLoadDropsWithPressure(t *testing.T) {
	p := testPredictor(t)
	w := monitor.InitialWeights()
	free := p.AdmissibleLoad(w, [3]float64{})
	loaded := p.AdmissibleLoad(w, [3]float64{0.8, 0, 0})
	if free <= 0 {
		t.Fatalf("admissible load at zero pressure = %v", free)
	}
	if loaded >= free {
		t.Errorf("admissible load did not drop: %v -> %v", free, loaded)
	}
	// And the service becomes inadmissible when contention pushes the
	// bare latency past the QoS target.
	crushed := p.AdmissibleLoad(w, [3]float64{10, 0, 0})
	if crushed != 0 {
		t.Errorf("admissible load under crushing pressure = %v, want 0", crushed)
	}
}

// TestClosedFormNearBisection evaluates the paper's literal Eq. 5 at the
// predictor's operating point and compares it with the bisection the
// controller uses.
func TestClosedFormNearBisection(t *testing.T) {
	p := testPredictor(t)
	w := monitor.InitialWeights()
	pressure := [3]float64{0.3, 0, 0}
	adm := p.AdmissibleLoad(w, pressure)
	q := queueing.MMN{Lambda: adm.Raw(), Mu: p.Mu(w, pressure, adm).Raw(), N: p.NMax}
	cf := queueing.DiscriminantClosedForm(q, units.Seconds(p.Profile.QoSTarget), p.Quantile)
	if cf <= 0 {
		t.Fatalf("closed form = %v at the bisection threshold %v", cf, adm)
	}
	if rel := math.Abs(units.Ratio(cf-adm, adm)); rel > 0.25 {
		t.Errorf("closed form %v vs bisection %v (rel %v)", cf, adm, rel)
	}
}

func TestControllerSwitchInAtLowLoad(t *testing.T) {
	c := mustNew(t, DefaultConfig(), testPredictor(t))
	c.ObserveLoad(5) // far below λ*
	d := c.Decide(100, metrics.BackendIaaS, monitor.InitialWeights(), [3]float64{}, [3]float64{0.1, 0, 0})
	if d.Target != metrics.BackendServerless {
		t.Errorf("did not switch in at load 5 (adm %v)", d.AdmissibleQPS)
	}
	if d.Blocked {
		t.Error("decision marked blocked")
	}
}

func TestControllerSafetyVeto(t *testing.T) {
	c := mustNew(t, DefaultConfig(), testPredictor(t))
	c.ObserveLoad(5)
	// Post-switch pressure above the bound on one dimension: veto.
	d := c.Decide(100, metrics.BackendIaaS, monitor.InitialWeights(), [3]float64{}, [3]float64{0.1, 0.95, 0})
	if d.Target != metrics.BackendIaaS {
		t.Errorf("switched in despite co-tenant danger (target %v)", d.Target)
	}
	if !d.Blocked {
		t.Error("veto not recorded as blocked")
	}
}

func TestControllerSwitchOutAtHighLoad(t *testing.T) {
	c := mustNew(t, DefaultConfig(), testPredictor(t))
	adm := c.Predictor().AdmissibleLoad(monitor.InitialWeights(), [3]float64{})
	c.ObserveLoad(adm * 1.2)
	d := c.Decide(100, metrics.BackendServerless, monitor.InitialWeights(), [3]float64{}, [3]float64{})
	if d.Target != metrics.BackendIaaS {
		t.Errorf("did not switch out at load %v > adm %v", c.Load(), adm)
	}
}

func TestControllerHysteresisBand(t *testing.T) {
	// Load between in-margin and out-margin: no switch from either mode.
	cfg := DefaultConfig()
	pred := testPredictor(t)
	adm := pred.AdmissibleLoad(monitor.InitialWeights(), [3]float64{})
	mid := units.Scale(adm, (cfg.SwitchInMargin+cfg.SwitchOutMargin)/2)

	c := mustNew(t, cfg, pred)
	c.ObserveLoad(mid)
	if d := c.Decide(0, metrics.BackendIaaS, monitor.InitialWeights(), [3]float64{}, [3]float64{}); d.Target != metrics.BackendIaaS {
		t.Error("switched in inside the hysteresis band")
	}
	c2 := mustNew(t, cfg, pred)
	c2.ObserveLoad(mid)
	if d := c2.Decide(0, metrics.BackendServerless, monitor.InitialWeights(), [3]float64{}, [3]float64{}); d.Target != metrics.BackendServerless {
		t.Error("switched out inside the hysteresis band")
	}
}

func TestObserveLoadEWMA(t *testing.T) {
	c := mustNew(t, DefaultConfig(), testPredictor(t))
	c.ObserveLoad(10)
	if c.Load() != 10 {
		t.Errorf("first observation = %v, want 10", c.Load())
	}
	c.ObserveLoad(20)
	want := 0.35*20 + 0.65*10
	if math.Abs(c.Load().Raw()-want) > 1e-12 {
		t.Errorf("EWMA = %v, want %v", c.Load(), want)
	}
}

func TestDecisionsRecorded(t *testing.T) {
	c := mustNew(t, DefaultConfig(), testPredictor(t))
	c.ObserveLoad(5)
	c.Decide(10, metrics.BackendIaaS, monitor.InitialWeights(), [3]float64{}, [3]float64{})
	c.Decide(20, metrics.BackendIaaS, monitor.InitialWeights(), [3]float64{}, [3]float64{})
	ds := c.Decisions()
	if len(ds) != 2 || ds[0].At != 10 || ds[1].At != 20 {
		t.Errorf("decisions = %+v", ds)
	}
}

func TestLearnedWeightsRaiseAdmissibleLoad(t *testing.T) {
	// The ablation's mechanism: sub-additive truth means learned weights
	// predict less slowdown than w0, so λ(μ_n) is higher and the switch
	// to serverless happens earlier (Fig. 14's resource savings).
	p, err := NewPredictor(workload.DD(), syntheticSet(workload.DD(), [3]float64{0.3, 0.8, 0.1}), 10, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	pressure := [3]float64{0.5, 0.5, 0.3}
	w0 := monitor.InitialWeights()
	learned := monitor.Weights{W: [3]float64{0.2, 0.7, 0.05}, Learned: true}
	admW0 := p.AdmissibleLoad(w0, pressure)
	admL := p.AdmissibleLoad(learned, pressure)
	if admL <= admW0 {
		t.Errorf("learned weights did not raise admissible load: %v vs %v", admL, admW0)
	}
}

func TestPredictorValidation(t *testing.T) {
	prof := workload.Float()
	set := syntheticSet(prof, [3]float64{0.5, 0, 0})
	cases := map[string]func() error{
		"nil set": func() error { _, err := NewPredictor(prof, nil, 10, 0.95); return err },
		"wrong service": func() error {
			s2 := syntheticSet(workload.DD(), [3]float64{0, 0, 0})
			_, err := NewPredictor(prof, s2, 10, 0.95)
			return err
		},
		"zero nmax":    func() error { _, err := NewPredictor(prof, set, 0, 0.95); return err },
		"bad quantile": func() error { _, err := NewPredictor(prof, set, 10, 1.0); return err },
	}
	for name, fn := range cases {
		if fn() == nil {
			t.Errorf("%s accepted without error", name)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := good
	bad.SwitchInMargin = good.SwitchOutMargin // must be strictly below
	if bad.Validate() == nil {
		t.Error("in-margin == out-margin accepted")
	}
	bad = good
	bad.LoadAlpha = 1.5
	if bad.Validate() == nil {
		t.Error("alpha > 1 accepted")
	}
}
