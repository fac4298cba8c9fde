package amoeba_test

import (
	"math"
	"strings"
	"testing"

	"amoeba"
)

func TestLoadTraceCSVThroughFacade(t *testing.T) {
	tr, err := amoeba.LoadTraceCSV(strings.NewReader("0,10\n100,50\n200,20\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Rate(100) != 50 || tr.Peak() != 50 {
		t.Errorf("replayed trace wrong: rate(100)=%v peak=%v", tr.Rate(100), tr.Peak())
	}
	if _, err := amoeba.LoadTraceCSV(strings.NewReader("garbage")); err == nil {
		t.Error("malformed CSV accepted")
	}
}

func TestSampledTraceThroughFacade(t *testing.T) {
	tr, err := amoeba.SampledTrace([]float64{0, 10}, []float64{5, 15})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Rate(5) != 10 {
		t.Errorf("midpoint = %v, want 10", tr.Rate(5))
	}
	if _, err := amoeba.SampledTrace([]float64{0}, []float64{1}); err == nil {
		t.Error("single-sample trace accepted")
	}
}

func TestAutoscaleVariantThroughFacade(t *testing.T) {
	prof, _ := amoeba.BenchmarkByName("float")
	opts := amoeba.DefaultScenarioOptions()
	res := amoeba.Run(mustScenario(t, amoeba.Autoscale, prof, opts))
	sr := res.Services[prof.Name]
	if sr.Collector.Count() < 1000 {
		t.Fatalf("only %d queries", sr.Collector.Count())
	}
	// The autoscaler must allocate less than the static peak deployment.
	nk := amoeba.Run(mustScenario(t, amoeba.Nameko, prof, opts)).Services[prof.Name]
	if sr.TotalUsage().CPU >= nk.TotalUsage().CPU {
		t.Errorf("autoscaler CPU %v not below static %v",
			sr.TotalUsage().CPU, nk.TotalUsage().CPU)
	}
}

func TestCustomBenchmarkValidatesThroughFacade(t *testing.T) {
	b := amoeba.Benchmark{
		Name:        "svc",
		ExecTime:    0.1,
		QoSTarget:   0.3,
		Demand:      amoeba.ResourceVector{CPU: 1, MemMB: 100},
		Sensitivity: amoeba.Sensitivity{CPU: 0.5},
		PeakQPS:     10,
		VMCores:     2,
		VMMemMB:     4096,
	}
	if err := b.Validate(); err != nil {
		t.Fatalf("valid custom benchmark rejected: %v", err)
	}
	b.QoSTarget = 0.05 // below exec time
	if b.Validate() == nil {
		t.Error("impossible QoS target accepted")
	}
}

// TestDiurnalTraceRejectsInvalid: the facade returns an error, never a
// trace, for a NaN or infinite day length or peak. Such a trace used to
// report a zero Peak, which a scenario accepted as a run with no
// arrivals. trace's TestDiurnalInvalidPanics covers every rejected case.
func TestDiurnalTraceRejectsInvalid(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		peak, trough, day float64
		ok                bool
	}{
		{80, 16, 3600, true},
		{80, 16, nan, false},
		{80, 16, inf, false},
		{nan, 16, 3600, false},
		{inf, 16, 3600, false},
	}
	for _, c := range cases {
		tr, err := amoeba.DiurnalTrace(amoeba.QPS(c.peak), amoeba.QPS(c.trough), amoeba.Seconds(c.day), 1)
		if (err == nil) != c.ok || (tr == nil) == c.ok {
			t.Errorf("DiurnalTrace(%v, %v, %v) = %v, %v; want ok %t", c.peak, c.trough, c.day, tr, err, c.ok)
		}
	}
}
