// Quickstart: run the dd benchmark under Amoeba for one virtual day and
// compare its resource usage against the pure IaaS deployment (Nameko),
// all through the public API.
package main

import (
	"fmt"

	"amoeba"
)

func main() {
	prof, err := amoeba.BenchmarkByName("dd")
	if err != nil {
		panic(err)
	}
	opts := amoeba.DefaultScenarioOptions()

	fmt.Printf("simulating %s (peak %.0f QPS, QoS %.0fms p95) for one day...\n",
		prof.Name, prof.PeakQPS, prof.QoSTarget*1000)

	scenario := func(v amoeba.Variant) amoeba.Scenario {
		sc, err := amoeba.NewScenario(v, prof, opts)
		if err != nil {
			panic(err)
		}
		return sc
	}
	am := amoeba.Run(scenario(amoeba.Amoeba)).Services[prof.Name]
	nk := amoeba.Run(scenario(amoeba.Nameko)).Services[prof.Name]

	fmt.Printf("\n%-22s %12s %12s\n", "", "amoeba", "nameko")
	fmt.Printf("%-22s %12d %12d\n", "queries", am.Collector.Count(), nk.Collector.Count())
	fmt.Printf("%-22s %11.1f%% %11.1f%%\n", "p95 / QoS target",
		100*am.Collector.P95()/prof.QoSTarget, 100*nk.Collector.P95()/prof.QoSTarget)
	fmt.Printf("%-22s %12t %12t\n", "QoS met", am.Collector.QoSMet(), nk.Collector.QoSMet())
	fmt.Printf("%-22s %12.0f %12.0f\n", "CPU usage (core-s)", am.TotalUsage().CPU, nk.TotalUsage().CPU)
	fmt.Printf("%-22s %12.0f %12.0f\n", "mem usage (GB-s)", am.TotalUsage().MemMB/1024, nk.TotalUsage().MemMB/1024)

	cpuSaved := 1 - am.TotalUsage().CPU/nk.TotalUsage().CPU
	memSaved := 1 - am.TotalUsage().MemMB/nk.TotalUsage().MemMB
	fmt.Printf("\nAmoeba saved %.1f%% CPU and %.1f%% memory while meeting the same QoS target.\n",
		100*cpuSaved, 100*memSaved)
	fmt.Printf("deploy-mode switches: %d to serverless, %d back to IaaS\n",
		am.Timeline.SwitchCount(amoeba.BackendServerless),
		am.Timeline.SwitchCount(amoeba.BackendIaaS))
}
