package core

import (
	"math"
	"testing"

	"amoeba/internal/metrics"
	"amoeba/internal/trace"
	"amoeba/internal/units"
	"amoeba/internal/workload"
)

// testDay is the compressed virtual day used in tests: long enough for
// several controller periods per load level, short enough to keep tests
// fast.
const testDay = 3600.0

// skipIfRace skips the full-day scenario simulations when the race
// detector is on; see race_enabled_test.go.
func skipIfRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("full-day simulation skipped under -race; see race_enabled_test.go")
	}
}

func background(seed uint64) []ServiceSpec {
	return BackgroundTenants(testDay, seed)
}

func scenarioFor(prof workload.Profile, v Variant, seed uint64) Scenario {
	return Scenario{
		Variant:    v,
		Services:   []ServiceSpec{{Profile: prof, Trace: trace.NewDiurnal(prof.PeakQPS, prof.PeakQPS*0.2, testDay, seed)}},
		Background: background(seed + 100),
		Duration:   testDay,
		Seed:       seed,
	}
}

func TestNamekoMeetsQoS(t *testing.T) {
	skipIfRace(t)
	for _, prof := range []workload.Profile{workload.Float(), workload.DD()} {
		res := Run(scenarioFor(prof, VariantNameko, 1))
		sr := res.Services[prof.Name]
		if sr.Collector.Count() < 1000 {
			t.Fatalf("%s: only %d queries", prof.Name, sr.Collector.Count())
		}
		if !sr.Collector.QoSMet() {
			t.Errorf("%s under Nameko: p95 %v > target %v",
				prof.Name, sr.Collector.P95(), prof.QoSTarget)
		}
		// Pure IaaS allocates for the whole run.
		wantCPU := sr.IaaSUsage.CPU / res.Duration.Raw()
		if wantCPU <= 0 {
			t.Errorf("%s: no IaaS allocation recorded", prof.Name)
		}
		if sr.ServerlessUsage.CPU != 0 {
			t.Errorf("%s: Nameko used serverless CPU %v", prof.Name, sr.ServerlessUsage.CPU)
		}
	}
}

func TestOpenWhiskViolatesOverloadedBenchmarks(t *testing.T) {
	skipIfRace(t)
	// matmul's peak exceeds its serverless capacity: pure serverless must
	// blow through the QoS target (Fig. 10).
	prof := workload.Matmul()
	res := Run(scenarioFor(prof, VariantOpenWhisk, 2))
	sr := res.Services[prof.Name]
	if sr.Collector.QoSMet() {
		t.Errorf("matmul under OpenWhisk met QoS (p95 %v <= %v); expected violation",
			sr.Collector.P95(), prof.QoSTarget)
	}
}

func TestAmoebaMeetsQoSAndSavesResources(t *testing.T) {
	skipIfRace(t)
	prof := workload.Float()
	amoeba := Run(scenarioFor(prof, VariantAmoeba, 3))
	nameko := Run(scenarioFor(prof, VariantNameko, 3))

	as := amoeba.Services[prof.Name]
	ns := nameko.Services[prof.Name]

	if !as.Collector.QoSMet() {
		t.Errorf("Amoeba p95 %v > target %v (violations %.1f%%)",
			as.Collector.P95(), prof.QoSTarget, 100*as.Collector.ViolationFraction())
	}
	aCPU, nCPU := as.TotalUsage().CPU, ns.TotalUsage().CPU
	aMem, nMem := as.TotalUsage().MemMB, ns.TotalUsage().MemMB
	if aCPU >= nCPU {
		t.Errorf("Amoeba CPU usage %v >= Nameko %v: no savings", aCPU, nCPU)
	}
	if aMem >= nMem {
		t.Errorf("Amoeba memory usage %v >= Nameko %v: no savings", aMem, nMem)
	}
	t.Logf("float: CPU saved %.1f%%, mem saved %.1f%%, switches=%d/%d, p95/target=%.2f",
		100*(1-aCPU/nCPU), 100*(1-aMem/nMem),
		as.Timeline.SwitchCount(metrics.BackendServerless),
		as.Timeline.SwitchCount(metrics.BackendIaaS),
		as.Collector.P95()/prof.QoSTarget)
}

func TestAmoebaSwitchesBothWays(t *testing.T) {
	skipIfRace(t)
	prof := workload.DD()
	res := Run(scenarioFor(prof, VariantAmoeba, 4))
	sr := res.Services[prof.Name]
	if sr.Timeline.SwitchCount(metrics.BackendServerless) == 0 {
		t.Error("never switched to serverless at low load")
	}
	if sr.Timeline.SwitchCount(metrics.BackendIaaS) == 0 {
		t.Error("never switched back to IaaS at high load")
	}
	// Both backends must have served real traffic.
	if sr.Collector.BackendCount(metrics.BackendIaaS) == 0 ||
		sr.Collector.BackendCount(metrics.BackendServerless) == 0 {
		t.Errorf("backend counts iaas=%d serverless=%d",
			sr.Collector.BackendCount(metrics.BackendIaaS),
			sr.Collector.BackendCount(metrics.BackendServerless))
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	skipIfRace(t)
	a := Run(scenarioFor(workload.Float(), VariantAmoeba, 7))
	b := Run(scenarioFor(workload.Float(), VariantAmoeba, 7))
	as, bs := a.Services["float"], b.Services["float"]
	if as.Collector.Count() != bs.Collector.Count() {
		t.Fatalf("query counts differ: %d vs %d", as.Collector.Count(), bs.Collector.Count())
	}
	if as.Collector.P95() != bs.Collector.P95() {
		t.Fatalf("p95 differs: %v vs %v", as.Collector.P95(), bs.Collector.P95())
	}
	if as.TotalUsage() != bs.TotalUsage() {
		t.Fatalf("usage differs: %v vs %v", as.TotalUsage(), bs.TotalUsage())
	}
}

// TestScenarioValidation pins the inputs Validate rejects, each of
// which Run would otherwise panic or hang on, and checks Run refuses
// them with a panic before simulating anything.
func TestScenarioValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		edit func(*Scenario)
	}{
		{"no services", func(sc *Scenario) { sc.Services = nil }},
		{"no duration", func(sc *Scenario) { sc.Duration = 0 }},
		{"duplicate name", func(sc *Scenario) { sc.Services = append(sc.Services, sc.Services[0]) }},
		{"unknown variant", func(sc *Scenario) { sc.Variant = VariantAutoscale + 1 }},
		{"NaN duration", func(sc *Scenario) { sc.Duration = units.Seconds(nan) }},
		{"infinite duration", func(sc *Scenario) { sc.Duration = units.Seconds(inf) }},
		{"NaN peak", func(sc *Scenario) { sc.Services[0].Trace = trace.Constant{QPS: nan} }},
		{"infinite peak", func(sc *Scenario) { sc.Services[0].Trace = trace.Constant{QPS: inf} }},
		{"negative peak", func(sc *Scenario) { sc.Services[0].Trace = trace.Constant{QPS: -1} }},
	}
	base := scenarioFor(workload.Float(), VariantAmoeba, 1)
	if err := base.Validate(); err != nil {
		t.Fatalf("base scenario: %v", err)
	}
	for _, tc := range cases {
		sc := base
		sc.Services = append([]ServiceSpec(nil), base.Services...)
		tc.edit(&sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the scenario", tc.name)
			continue
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Run did not panic", tc.name)
				}
			}()
			Run(sc)
		}()
	}
}

func TestVariantString(t *testing.T) {
	names := map[Variant]string{
		VariantAmoeba: "amoeba", VariantAmoebaNoM: "amoeba-nom",
		VariantAmoebaNoP: "amoeba-nop", VariantNameko: "nameko",
		VariantOpenWhisk: "openwhisk", VariantAutoscale: "autoscale",
	}
	for v, want := range names {
		if v.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(v), v.String(), want)
		}
	}
}
