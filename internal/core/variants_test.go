package core

import (
	"math"
	"testing"

	"amoeba/internal/metrics"
	"amoeba/internal/profiling"
	"amoeba/internal/serverless"
	"amoeba/internal/trace"
	"amoeba/internal/workload"
)

func TestNoMUsesAtLeastAsMuchAsAmoeba(t *testing.T) {
	skipIfRace(t)
	prof := workload.Float()
	am := Run(scenarioFor(prof, VariantAmoeba, 21)).Services[prof.Name]
	nom := Run(scenarioFor(prof, VariantAmoebaNoM, 21)).Services[prof.Name]
	if !nom.Collector.QoSMet() {
		t.Error("NoM violated QoS; pessimism must be safe")
	}
	if nom.TotalUsage().CPU < am.TotalUsage().CPU*0.98 {
		t.Errorf("NoM CPU %v markedly below Amoeba %v",
			nom.TotalUsage().CPU, am.TotalUsage().CPU)
	}
	if nom.FinalWeights.Learned {
		t.Error("NoM reported learned weights")
	}
	if !am.FinalWeights.Learned {
		t.Error("Amoeba never calibrated over a full day")
	}
}

func TestNoPViolatesMoreThanAmoeba(t *testing.T) {
	skipIfRace(t)
	prof := workload.CloudStor()
	am := Run(scenarioFor(prof, VariantAmoeba, 22)).Services[prof.Name]
	nop := Run(scenarioFor(prof, VariantAmoebaNoP, 22)).Services[prof.Name]
	if len(nop.Timeline.Switches) == 0 {
		t.Skip("no switches this seed; NoP indistinguishable")
	}
	if nop.Collector.ViolationFraction() <= am.Collector.ViolationFraction() {
		t.Errorf("NoP violations %v not above Amoeba %v",
			nop.Collector.ViolationFraction(), am.Collector.ViolationFraction())
	}
}

func TestBurstForcesSwitchOut(t *testing.T) {
	skipIfRace(t)
	// A service cruising on serverless gets hit by a sustained burst well
	// beyond its admissible load: Amoeba must retreat to IaaS and keep
	// the 95%-ile intact over the whole run.
	prof := workload.DD()
	low := prof.PeakQPS * 0.2
	sc := Scenario{
		Variant: VariantAmoeba,
		Services: []ServiceSpec{{
			Profile: prof,
			Trace: trace.Burst{
				Inner: trace.Constant{QPS: low},
				Extra: prof.PeakQPS - low,
				From:  1200, To: 2800,
			},
		}},
		Background: background(23),
		Duration:   testDay,
		Seed:       23,
	}
	res := Run(sc)
	sr := res.Services[prof.Name]
	if sr.Timeline.SwitchCount(metrics.BackendIaaS) == 0 {
		t.Fatal("burst did not force a switch to IaaS")
	}
	if !sr.Collector.QoSMet() {
		t.Errorf("QoS violated across the burst: p95 %v > %v (violations %.2f%%)",
			sr.Collector.P95(), prof.QoSTarget, 100*sr.Collector.ViolationFraction())
	}
	// After the burst it must come back to serverless.
	last := sr.Timeline.Switches[len(sr.Timeline.Switches)-1]
	if last.To != metrics.BackendServerless || last.At < 2800 {
		t.Errorf("did not return to serverless after the burst: last switch %+v", last)
	}
}

func TestMultiDayRunStable(t *testing.T) {
	skipIfRace(t)
	if testing.Short() {
		t.Skip("multi-day run in -short mode")
	}
	prof := workload.Float()
	sc := scenarioFor(prof, VariantAmoeba, 24)
	sc.Duration = 3 * testDay
	res := Run(sc)
	sr := res.Services[prof.Name]
	if !sr.Collector.QoSMet() {
		t.Errorf("QoS violated over 3 days: p95 %v", sr.Collector.P95())
	}
	// The pattern must repeat: at least one switch-in per day on average.
	if got := sr.Timeline.SwitchCount(metrics.BackendServerless); got < 2 {
		t.Errorf("only %d switch-ins over 3 days", got)
	}
	// No runaway growth in decisions or events.
	if res.Events > 30_000_000 {
		t.Errorf("event count exploded: %d", res.Events)
	}
}

func TestMultiServiceScenario(t *testing.T) {
	skipIfRace(t)
	day := testDay
	sc := Scenario{
		Variant: VariantAmoeba,
		Services: []ServiceSpec{
			{Profile: workload.Float(), Trace: trace.NewDiurnal(workload.Float().PeakQPS, workload.Float().PeakQPS*0.2, day, 1)},
			{Profile: workload.DD(), Trace: trace.NewDiurnal(workload.DD().PeakQPS, workload.DD().PeakQPS*0.2, day, 2)},
		},
		Background: background(25),
		Duration:   testDay,
		Seed:       25,
	}
	res := Run(sc)
	if len(res.Services) != 2 {
		t.Fatalf("%d service results, want 2", len(res.Services))
	}
	for name, sr := range res.Services {
		if !sr.Collector.QoSMet() {
			t.Errorf("%s violated QoS in the multi-service run (p95 %v)", name, sr.Collector.P95())
		}
		if sr.Timeline.SwitchCount(metrics.BackendServerless) == 0 {
			t.Errorf("%s never used the pool", name)
		}
	}
}

func TestBackgroundTenantsWellFormed(t *testing.T) {
	bgs := BackgroundTenants(3600, 1)
	if len(bgs) != 3 {
		t.Fatalf("%d background tenants, want 3 (float, dd, cloud_stor)", len(bgs))
	}
	names := map[string]bool{}
	for _, bg := range bgs {
		if err := bg.Profile.Validate(); err != nil {
			t.Errorf("background %s invalid: %v", bg.Profile.Name, err)
		}
		names[bg.Profile.Name] = true
		// Background peaks are far below the main benchmarks' peaks
		// relative to capacity: "slight pressure".
		if bg.Trace.Peak() <= 0 {
			t.Errorf("background %s has no load", bg.Profile.Name)
		}
	}
	for _, want := range []string{"bg_float", "bg_dd", "bg_cloud_stor"} {
		if !names[want] {
			t.Errorf("missing background tenant %s", want)
		}
	}
}

func TestMeterOverheadReportedForAmoebaVariants(t *testing.T) {
	skipIfRace(t)
	res := Run(scenarioFor(workload.Float(), VariantAmoeba, 26))
	if res.MeterCPUSeconds <= 0 {
		t.Error("no meter overhead recorded for Amoeba")
	}
	res2 := Run(scenarioFor(workload.Float(), VariantNameko, 26))
	if res2.MeterCPUSeconds != 0 {
		t.Error("meter overhead recorded for a baseline without a monitor")
	}
}

func TestProfileCacheReuse(t *testing.T) {
	skipIfRace(t)
	// Two runs with the same config must reuse the memoised surfaces.
	ResetProfileCache()
	Run(scenarioFor(workload.Float(), VariantAmoeba, 27))
	before := testingCacheSizes()
	Run(scenarioFor(workload.Float(), VariantAmoeba, 28))
	after := testingCacheSizes()
	if before != after {
		t.Errorf("cache grew across identical runs: %v -> %v", before, after)
	}
}

// TestSurfaceSetKeyedByName pins the memo key: profiling seeds a
// surface's cells from the service name, so a renamed clone of float,
// profiled first, must not stand in for float itself. All three grids
// of SurfaceSet(float) equal a fresh, unmemoised float build bit for bit.
func TestSurfaceSetKeyedByName(t *testing.T) {
	cfg := serverless.DefaultConfig()
	fl := workload.Float()
	clone := fl
	clone.Name = "float_clone"
	ResetProfileCache()
	SurfaceSet(clone, cfg)
	got := SurfaceSet(fl, cfg)
	want := profiling.BuildSet(fl, cfg, profiling.DefaultPressureGrid(), profiling.DefaultLoadGrid(fl))
	if got.Service != fl.Name {
		t.Fatalf("service label %q, want %q", got.Service, fl.Name)
	}
	for idx, ws := range want.Surfaces {
		gs := got.Surfaces[idx]
		for i := range ws.Lat {
			for j := range ws.Lat[i] {
				if g, w := gs.Lat[i][j], ws.Lat[i][j]; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("surface %d cell (%d,%d) = %v, fresh float build %v", idx, i, j, g, w)
				}
			}
		}
	}
}

func testingCacheSizes() [2]int {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	return [2]int{len(curveCache), len(surfaceCache)}
}
