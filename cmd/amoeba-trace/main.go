// Command amoeba-trace generates load-trace CSV files ("time_seconds,qps")
// that amoeba.LoadTraceCSV and the trace-replay example consume: a
// Didi-shaped diurnal day by default, optionally with a superimposed
// burst. It closes the loop between the synthetic generator and the
// replay path, and gives experiments a way to freeze a stochastic trace
// into a reviewable file.
//
// Usage:
//
//	amoeba-trace -peak 80 -trough 16 -day 3600 -samples 720 > day.csv
//	amoeba-trace -burst-extra 40 -burst-from 1200 -burst-to 1500 > bursty.csv
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"

	"amoeba/internal/trace"
)

func main() {
	var (
		peak      = flag.Float64("peak", 80, "daytime peak QPS")
		trough    = flag.Float64("trough", 16, "night trough QPS")
		day       = flag.Float64("day", 3600, "day length in virtual seconds")
		samples   = flag.Int("samples", 720, "samples across the day")
		seed      = flag.Uint64("seed", 1, "noise seed")
		burstQPS  = flag.Float64("burst-extra", 0, "extra QPS during the burst window (0 = no burst)")
		burstFrom = flag.Float64("burst-from", 0, "burst start, seconds")
		burstTo   = flag.Float64("burst-to", 0, "burst end, seconds")
	)
	flag.Parse()

	// Every comparison below is false for NaN, so NaN fails each check.
	finite := func(x float64) bool { return !math.IsInf(x, 0) && !math.IsNaN(x) }
	inDay := func(x float64) bool { return 0 <= x && x <= *day }
	for _, c := range []struct {
		ok   bool
		need string
	}{
		{finite(*peak) && *peak > *trough && *trough >= 0, "finite peak > trough >= 0"},
		{finite(*day) && *day > 0 && *samples >= 2, "a finite day > 0 and samples >= 2"},
		{finite(*burstQPS) && *burstQPS >= 0, "a finite burst-extra >= 0"},
		{inDay(*burstFrom) && inDay(*burstTo), "burst-from and burst-to within [0, day]"},
		{*burstQPS == 0 || *burstFrom < *burstTo, "burst-from < burst-to"},
	} {
		if !c.ok {
			fmt.Fprintf(os.Stderr, "amoeba-trace: need %s (-peak %g -trough %g -day %g -samples %d -burst-extra %g -burst-from %g -burst-to %g)\n",
				c.need, *peak, *trough, *day, *samples, *burstQPS, *burstFrom, *burstTo)
			os.Exit(2)
		}
	}

	var tr trace.Trace = trace.NewDiurnal(*peak, *trough, *day, *seed)
	if *burstQPS > 0 {
		tr = trace.Burst{Inner: tr, Extra: *burstQPS, From: *burstFrom, To: *burstTo}
	}

	sampled := trace.Resample(tr, 0, *day, *samples)
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintf(w, "# diurnal trace: peak=%g trough=%g day=%gs seed=%d\n", *peak, *trough, *day, *seed)
	fmt.Fprintln(w, "time_s,qps")
	for i := 0; i < *samples; i++ {
		t := *day * float64(i) / float64(*samples-1)
		fmt.Fprintf(w, "%.1f,%.3f\n", t, sampled.Rate(t))
	}
}
