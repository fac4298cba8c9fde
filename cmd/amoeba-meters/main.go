// Command amoeba-meters profiles the contention meters (Fig. 8) and,
// optionally, a benchmark's latency surfaces (Fig. 9) and prints the
// resulting curves/grids.
//
// Usage:
//
//	amoeba-meters                 # the three meter curves
//	amoeba-meters -surfaces dd    # plus dd's three latency surfaces
package main

import (
	"flag"
	"fmt"
	"os"

	"amoeba/internal/experiments"
	"amoeba/internal/report"
	"amoeba/internal/workload"
)

func main() {
	var (
		surfacesFor = flag.String("surfaces", "", "also profile this benchmark's latency surfaces")
	)
	flag.Parse()

	fmt.Println("profiling contention meters (Fig. 8)...")
	res := experiments.Fig08(experiments.DefaultConfig())
	for _, c := range res.Curves {
		fmt.Printf("  %-10s %s\n", c.Meter.Profile.Name, report.Sparkline(c.Latencies))
	}
	fmt.Print(res.Render().String())

	if *surfacesFor != "" {
		prof, err := workload.ByName(*surfacesFor)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Printf("profiling latency surfaces of %s (Fig. 9)...\n", prof.Name)
		res := experiments.Fig09(experiments.DefaultConfig(), prof)
		for _, t := range res.Render() {
			fmt.Print(t.String())
		}
	}
}
