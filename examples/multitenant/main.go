// Multi-tenant: manage several microservices with one Amoeba runtime on a
// shared serverless pool. Each service gets its own controller and
// engine; the contention monitor is shared — so one tenant's load shows
// up in the others' switching decisions, and the co-tenant safety check
// can veto a switch-in that would overload the pool.
package main

import (
	"fmt"
	"os"

	"amoeba"
)

// diurnal builds a day-shaped trace peaking at the profile's peak QPS.
func diurnal(prof amoeba.Benchmark, trough amoeba.Fraction, day amoeba.Seconds, seed uint64) amoeba.Trace {
	peak := amoeba.QPS(prof.PeakQPS)
	tr, err := amoeba.DiurnalTrace(peak, amoeba.QPS(prof.PeakQPS*trough.Raw()), day, seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return tr
}

func main() {
	const day = amoeba.Seconds(3600)
	float, _ := amoeba.BenchmarkByName("float")
	dd, _ := amoeba.BenchmarkByName("dd")
	stor, _ := amoeba.BenchmarkByName("cloud_stor")

	// Stagger the peaks: float peaks in the morning, dd in the evening —
	// so the pool sees different contention when each considers
	// switching.
	sc := amoeba.Scenario{
		Variant: amoeba.Amoeba,
		Services: []amoeba.ServiceSpec{
			{Profile: float, Trace: diurnal(float, amoeba.Fraction(0.2), day, 1)},
			{Profile: dd, Trace: diurnal(dd, amoeba.Fraction(0.2), day, 2)},
			{Profile: stor, Trace: diurnal(stor, amoeba.Fraction(0.25), day, 3)},
		},
		Background: amoeba.BackgroundTenants(day, 99),
		Duration:   day,
		Seed:       7,
	}

	fmt.Println("running float + dd + cloud_stor under one Amoeba runtime for a day...")
	res := amoeba.Run(sc)

	fmt.Printf("\n%-12s %8s %9s %8s %10s %10s %8s\n",
		"service", "queries", "p95/qos", "qos_met", "to_svless", "to_iaas", "blocked")
	for _, spec := range sc.Services {
		sr := res.Services[spec.Profile.Name]
		fmt.Printf("%-12s %8d %8.1f%% %8t %10d %10d %8d\n",
			spec.Profile.Name,
			sr.Collector.Count(),
			100*sr.Collector.P95()/spec.Profile.QoSTarget,
			sr.Collector.QoSMet(),
			sr.Timeline.SwitchCount(amoeba.BackendServerless),
			sr.Timeline.SwitchCount(amoeba.BackendIaaS),
			sr.BlockedSwitches)
	}

	fmt.Printf("\nshared-pool meter overhead: %.1f core-seconds over the day\n", res.MeterCPUSeconds)
	fmt.Println("background tenants (always serverless):")
	for name, coll := range res.Background {
		fmt.Printf("  %-16s %7d queries, p95 %.0fms\n", name, coll.Count(), coll.P95()*1000)
	}
}
