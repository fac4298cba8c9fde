package amoeba_test

import (
	"math"
	"testing"

	"amoeba"
)

// mustScenario builds a standard scenario, failing the test on an error.
func mustScenario(t *testing.T, v amoeba.Variant, prof amoeba.Benchmark, opts amoeba.ScenarioOptions) amoeba.Scenario {
	t.Helper()
	sc, err := amoeba.NewScenario(v, prof, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestBenchmarksSuite(t *testing.T) {
	bs := amoeba.Benchmarks()
	if len(bs) != 5 {
		t.Fatalf("got %d benchmarks, want 5", len(bs))
	}
	want := []string{"float", "matmul", "linpack", "dd", "cloud_stor"}
	for i, b := range bs {
		if b.Name != want[i] {
			t.Errorf("benchmark %d = %q, want %q", i, b.Name, want[i])
		}
	}
	if _, err := amoeba.BenchmarkByName("float"); err != nil {
		t.Errorf("BenchmarkByName(float): %v", err)
	}
	if _, err := amoeba.BenchmarkByName("bogus"); err == nil {
		t.Error("BenchmarkByName(bogus) did not error")
	}
}

func TestPublicRunEndToEnd(t *testing.T) {
	prof, err := amoeba.BenchmarkByName("float")
	if err != nil {
		t.Fatal(err)
	}
	opts := amoeba.DefaultScenarioOptions()
	res := amoeba.Run(mustScenario(t, amoeba.Amoeba, prof, opts))
	sr := res.Services[prof.Name]
	if sr == nil {
		t.Fatal("no service result")
	}
	if sr.Collector.Count() < 1000 {
		t.Fatalf("only %d queries", sr.Collector.Count())
	}
	if !sr.Collector.QoSMet() {
		t.Errorf("Amoeba violated QoS via public API: p95 %v > %v",
			sr.Collector.P95(), prof.QoSTarget)
	}
	if sr.Timeline.SwitchCount(amoeba.BackendServerless) == 0 {
		t.Error("no switch to serverless over a full day")
	}
}

func TestPublicRunDeterminism(t *testing.T) {
	prof, _ := amoeba.BenchmarkByName("dd")
	opts := amoeba.DefaultScenarioOptions()
	a := amoeba.Run(mustScenario(t, amoeba.Nameko, prof, opts))
	b := amoeba.Run(mustScenario(t, amoeba.Nameko, prof, opts))
	if a.Services[prof.Name].Collector.P95() != b.Services[prof.Name].Collector.P95() {
		t.Error("public API runs are not deterministic")
	}
}

func TestCustomTraceScenario(t *testing.T) {
	prof, _ := amoeba.BenchmarkByName("matmul")
	sc := amoeba.Scenario{
		Variant:  amoeba.OpenWhisk,
		Services: []amoeba.ServiceSpec{{Profile: prof, Trace: amoeba.ConstantTrace(5)}},
		Duration: 300,
		Seed:     1,
	}
	res := amoeba.Run(sc)
	sr := res.Services[prof.Name]
	if sr.Collector.Count() < 1000 {
		t.Fatalf("only %d queries at 5 QPS over 300s", sr.Collector.Count())
	}
	// 5 QPS is far below matmul's serverless capacity: QoS holds.
	if !sr.Collector.QoSMet() {
		t.Errorf("OpenWhisk at trivial load violated QoS: p95 %v", sr.Collector.P95())
	}
}

// TestNewScenarioValidation pins the options NewScenario rejects with an
// error: each would otherwise panic while the load trace is built or
// give a run that never finishes.
func TestNewScenarioValidation(t *testing.T) {
	prof, _ := amoeba.BenchmarkByName("float")
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		days, dayLength, trough float64
		ok                      bool
	}{
		{1, 0, 0.2, false},
		{1, -5, 0.2, false},
		{1, nan, 0.2, false},
		{1, inf, 0.2, false},
		{0, 3600, 0.2, false},
		{-1, 3600, 0.2, false},
		{nan, 3600, 0.2, false},
		{inf, 3600, 0.2, false},
		{1, 3600, nan, false},
		{1, 3600, -0.1, false},
		{1, 3600, 1, false},
		{1, 3600, 1.5, false},
		{1, 1e300, 0.2, false},
		{1e300, 3600, 0.2, false},
		{168.0000001, 3600, 0.2, false},
		{7, 86400, 0.2, true},
		{1, 3600, 0, true},
		{1, 3600, 0.2, true},
		{1, 3600, 0.99, true},
	}
	for _, c := range cases {
		opts := amoeba.DefaultScenarioOptions()
		opts.Days = c.days
		opts.DayLength = amoeba.Seconds(c.dayLength)
		opts.TroughFraction = amoeba.Fraction(c.trough)
		_, err := amoeba.NewScenario(amoeba.Amoeba, prof, opts)
		if (err == nil) != c.ok {
			t.Errorf("days %v, day length %v, trough %v: err = %v, want ok = %v",
				c.days, c.dayLength, c.trough, err, c.ok)
		}
	}
	for _, peak := range []float64{0, nan, inf} {
		bad := prof
		bad.PeakQPS = peak
		if _, err := amoeba.NewScenario(amoeba.Amoeba, bad, amoeba.DefaultScenarioOptions()); err == nil {
			t.Errorf("benchmark with peak load %v accepted", peak)
		}
	}
}
