package cost

import (
	"math"
	"testing"

	"amoeba/internal/core"
	"amoeba/internal/metrics"
	"amoeba/internal/resources"
	"amoeba/internal/trace"
	"amoeba/internal/workload"
)

func serviceResult(iaasCPU, iaasMemMB, slMemMBs float64, slQueries int) *core.ServiceResult {
	prof := workload.Float()
	coll := metrics.NewCollector(prof.Name, prof.QoSTarget)
	for i := 0; i < slQueries; i++ {
		coll.Observe(metrics.QueryRecord{
			Backend:   metrics.BackendServerless,
			Breakdown: metrics.Breakdown{Exec: 0.1},
		})
	}
	return &core.ServiceResult{
		Profile:         prof,
		Collector:       coll,
		IaaSUsage:       resources.Vector{CPU: iaasCPU, MemMB: iaasMemMB},
		ServerlessUsage: resources.Vector{MemMB: slMemMBs},
	}
}

func TestBillArithmetic(t *testing.T) {
	p := Pricing{
		IaaSCoreSecond:       0.01,
		IaaSMemGBSecond:      0.001,
		ServerlessGBSecond:   0.002,
		ServerlessInvocation: 0.0001,
	}
	sr := serviceResult(100, 2048, 512, 50)
	b := ForService(p, sr)
	if math.Abs(b.IaaSCompute-1.0) > 1e-12 { // 100 core-s × 0.01
		t.Errorf("IaaSCompute = %v", b.IaaSCompute)
	}
	if math.Abs(b.IaaSMemory-0.002) > 1e-12 { // 2 GB-s × 0.001
		t.Errorf("IaaSMemory = %v", b.IaaSMemory)
	}
	if math.Abs(b.ServerlessCompute-0.001) > 1e-12 { // 0.5 GB-s × 0.002
		t.Errorf("ServerlessCompute = %v", b.ServerlessCompute)
	}
	if math.Abs(b.ServerlessInvocations-0.005) > 1e-12 { // 50 × 0.0001
		t.Errorf("ServerlessInvocations = %v", b.ServerlessInvocations)
	}
	want := 1.0 + 0.002 + 0.001 + 0.005
	if math.Abs(b.Total()-want) > 1e-12 {
		t.Errorf("Total = %v, want %v", b.Total(), want)
	}
}

func TestDefaultPricingSane(t *testing.T) {
	p := DefaultPricing()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// The structural fact behind the paper's economics: an idle rented
	// core costs real money; an idle serverless deployment costs nothing.
	idleIaaSHour := p.IaaSCoreSecond * 3600
	if idleIaaSHour <= 0 {
		t.Error("idle IaaS is free; the diurnal argument collapses")
	}
}

func TestCompareSavings(t *testing.T) {
	p := DefaultPricing()
	amoeba := ForService(p, serviceResult(1000, 100*1024, 50*1024, 1000)) // part-time IaaS
	nameko := ForService(p, serviceResult(5000, 500*1024, 0, 0))          // always-on IaaS
	if saved := 1 - amoeba.Total()/nameko.Total(); saved <= 0 || saved >= 1 {
		t.Errorf("saving fraction %v out of (0,1)", saved)
	}
}

func TestValidateRejectsBadTariffs(t *testing.T) {
	bad := DefaultPricing()
	bad.IaaSCoreSecond = -1
	if bad.Validate() == nil {
		t.Error("negative price accepted")
	}
	if (Pricing{}).Validate() == nil {
		t.Error("all-zero tariff accepted")
	}
}

func TestForServicePanicsOnNil(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil result did not panic")
		}
	}()
	ForService(DefaultPricing(), nil)
}

// TestEndToEndCostSaving prices a real Amoeba run against Nameko: the
// paper's resource savings must survive translation into money.
func TestEndToEndCostSaving(t *testing.T) {
	prof := workload.Float()
	mk := func(v core.Variant) *core.ServiceResult {
		sc := core.Scenario{
			Variant: v,
			Services: []core.ServiceSpec{{
				Profile: prof,
				Trace:   trace.NewDiurnal(prof.PeakQPS, prof.PeakQPS*0.2, 3600, 31),
			}},
			Background: core.BackgroundTenants(3600, 31),
			Duration:   3600,
			Seed:       31,
		}
		return core.Run(sc).Services[prof.Name]
	}
	am, nk := mk(core.VariantAmoeba), mk(core.VariantNameko)
	billA, billN := ForService(DefaultPricing(), am), ForService(DefaultPricing(), nk)
	saved := 1 - billA.Total()/billN.Total()
	if saved <= 0.15 {
		t.Errorf("cost saving %.1f%% too small (amoeba $%.4f vs nameko $%.4f)",
			saved*100, billA.Total(), billN.Total())
	}
	if billN.ServerlessCompute != 0 || billN.ServerlessInvocations != 0 {
		t.Error("Nameko billed serverless components")
	}
	t.Logf("float day: amoeba $%.4f vs nameko $%.4f (saved %.1f%%)",
		billA.Total(), billN.Total(), 100*saved)
}
