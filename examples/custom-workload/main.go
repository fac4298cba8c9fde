// Custom workload: define a microservice that is not part of the
// FunctionBench suite — a thumbnail-resizing service with mixed CPU and
// network demand — and let Amoeba manage it. Demonstrates that the
// public Benchmark type is an open profile, not a closed enum.
package main

import (
	"fmt"

	"amoeba"
)

func main() {
	thumb := amoeba.Benchmark{
		Name:     "thumbnail",
		ExecTime: 0.120, // 120 ms of decode + resize + encode
		ExecCV:   0.18,
		// p95 within 350 ms end to end.
		QoSTarget: 0.350,
		// Each in-flight query: most of a core, a modest working set,
		// and the image transfer on the NIC.
		Demand: amoeba.ResourceVector{CPU: 0.7, MemMB: 190, DiskMBs: 10, NetMbs: 250},
		// Sensitive to CPU contention, somewhat to network.
		Sensitivity:    amoeba.Sensitivity{CPU: 0.7, IO: 0.05, Net: 0.4},
		MemSensitivity: 0.5,
		PeakQPS:        45,
		Overheads: amoeba.Overheads{
			Processing:  0.010,
			CodeLoadHot: 0.008,
			ResultPost:  0.012, // posting the thumbnail back
		},
		VMCores: 4,
		VMMemMB: 8 * 1024,
	}
	if err := thumb.Validate(); err != nil {
		panic(err)
	}
	if thumb.Demand.MemMB > amoeba.ContainerMemMB {
		panic("working set exceeds the serverless container size")
	}

	opts := amoeba.DefaultScenarioOptions()
	fmt.Printf("simulating custom service %q (peak %.0f QPS, QoS %.0fms) under Amoeba...\n",
		thumb.Name, thumb.PeakQPS, thumb.QoSTarget*1000)
	fmt.Println("(first run profiles the service's latency surfaces — Fig. 9 style)")

	scenario := func(v amoeba.Variant) amoeba.Scenario {
		sc, err := amoeba.NewScenario(v, thumb, opts)
		if err != nil {
			panic(err)
		}
		return sc
	}
	am := amoeba.Run(scenario(amoeba.Amoeba)).Services[thumb.Name]
	nk := amoeba.Run(scenario(amoeba.Nameko)).Services[thumb.Name]

	fmt.Printf("\np95 latency: %.0fms (target %.0fms) — QoS met: %v\n",
		am.Collector.P95()*1000, thumb.QoSTarget*1000, am.Collector.QoSMet())
	fmt.Printf("switches: %d to serverless, %d to IaaS\n",
		am.Timeline.SwitchCount(amoeba.BackendServerless),
		am.Timeline.SwitchCount(amoeba.BackendIaaS))
	fmt.Printf("CPU saved vs always-on IaaS: %.1f%%\n",
		100*(1-am.TotalUsage().CPU/nk.TotalUsage().CPU))
	fmt.Printf("memory saved vs always-on IaaS: %.1f%%\n",
		100*(1-am.TotalUsage().MemMB/nk.TotalUsage().MemMB))
}
