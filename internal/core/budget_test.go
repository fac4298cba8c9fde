package core

import (
	"runtime"
	"testing"

	"amoeba/internal/trace"
	"amoeba/internal/workload"
)

// runMallocBudget bounds the heap objects of one run in steady state.
// A 600 s Amoeba day on dd beside the background tenants measured 2,107
// objects (2,106–2,109 over three runs; 2-vCPU Intel Xeon, go1.24.0):
// the platforms, engines and the Result, and none per query or per
// heartbeat. The bound leaves a 42% margin for the runtime's own
// bookkeeping. The same run allocated 9,751 objects when each refit of
// the monitor's regression built its matrices afresh.
const runMallocBudget = 3000

// TestRunAllocationBudget runs the day twice and counts the second run's
// allocations, so one-time set-up shared across runs is not charged.
func TestRunAllocationBudget(t *testing.T) {
	const day, seed = 600.0, 42
	prof := workload.DD()
	sc := Scenario{
		Variant:    VariantAmoeba,
		Services:   []ServiceSpec{{Profile: prof, Trace: trace.NewDiurnal(prof.PeakQPS, prof.PeakQPS*0.2, day, seed)}},
		Background: BackgroundTenants(day, seed+7),
		Duration:   day,
		Seed:       seed,
	}
	Run(sc)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := Run(sc)
	runtime.ReadMemStats(&after)
	if n := res.Services[prof.Name].Collector.Count(); n < 20000 {
		t.Fatalf("the day completed %d queries; the budget assumes a loaded day", n)
	}
	if mallocs := after.Mallocs - before.Mallocs; mallocs > runMallocBudget {
		t.Errorf("a 600 s Amoeba day allocated %d objects, budget %d", mallocs, runMallocBudget)
	}
}
