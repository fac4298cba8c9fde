// Diurnal switching: visualise how Amoeba moves a service between the
// IaaS and serverless deployments as its load follows a day-night cycle —
// the behaviour of the paper's Fig. 12 — as an ASCII timeline.
package main

import (
	"fmt"
	"strings"

	"amoeba"
)

func main() {
	prof, err := amoeba.BenchmarkByName("float")
	if err != nil {
		panic(err)
	}
	opts := amoeba.DefaultScenarioOptions()
	opts.Seed = 42

	fmt.Printf("one diurnal day of %s under Amoeba (peak %.0f QPS, trough %.0f QPS)\n\n",
		prof.Name, prof.PeakQPS, prof.PeakQPS*opts.TroughFraction.Raw())
	sc, err := amoeba.NewScenario(amoeba.Amoeba, prof, opts)
	if err != nil {
		panic(err)
	}
	sr := amoeba.Run(sc).Services[prof.Name]

	// Render the timeline: one column per snapshot, load on top, the
	// active deployment mode underneath.
	const cols = 72
	snaps := sr.Timeline.Snapshots
	if len(snaps) == 0 {
		panic("no snapshots recorded")
	}
	step := len(snaps) / cols
	if step == 0 {
		step = 1
	}
	var loads []float64
	var modes []amoeba.Backend
	maxLoad := 0.0
	for i := 0; i < len(snaps); i += step {
		loads = append(loads, snaps[i].LoadQPS)
		modes = append(modes, snaps[i].Mode)
		if snaps[i].LoadQPS > maxLoad {
			maxLoad = snaps[i].LoadQPS
		}
	}

	const rows = 8
	for r := rows; r >= 1; r-- {
		line := make([]byte, len(loads))
		for c, l := range loads {
			if l/maxLoad*rows >= float64(r)-0.5 {
				line[c] = '#'
			} else {
				line[c] = ' '
			}
		}
		fmt.Printf("%5.0f |%s\n", maxLoad*float64(r)/rows, string(line))
	}
	fmt.Printf("      +%s\n", strings.Repeat("-", len(loads)))
	modeLine := make([]byte, len(modes))
	for c, m := range modes {
		if m == amoeba.BackendServerless {
			modeLine[c] = 's' // serverless
		} else {
			modeLine[c] = 'I' // IaaS
		}
	}
	fmt.Printf("mode:  %s\n", string(modeLine))
	fmt.Println("       (I = IaaS, s = serverless)")

	fmt.Println("\nswitch events:")
	for _, sw := range sr.Timeline.Switches {
		fmt.Printf("  t=%5.0fs  ->%-10s  at load %.1f QPS\n", sw.At, sw.To, sw.LoadQPS)
	}
	fmt.Printf("\nQoS met: %v (p95 = %.0fms, target %.0fms)\n",
		sr.Collector.QoSMet(), sr.Collector.P95()*1000, prof.QoSTarget*1000)
}
