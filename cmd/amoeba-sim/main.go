// Command amoeba-sim runs one benchmark under one system variant for a
// configurable number of virtual days and prints the outcome: QoS
// statistics, deploy-mode switches, and resource usage.
//
// Usage:
//
//	amoeba-sim -bench dd -variant amoeba -days 1 -day-length 3600 -seed 7
//
// Telemetry flags:
//
//	-events out.jsonl   write the full event stream as JSON lines
//	-metrics-dump       print Prometheus-text metrics after the run
//	-audit              print the decision-audit and switch-span tables
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"amoeba"
	"amoeba/internal/report"
)

var variants = map[string]amoeba.Variant{
	"amoeba":     amoeba.Amoeba,
	"amoeba-nom": amoeba.AmoebaNoM,
	"amoeba-nop": amoeba.AmoebaNoP,
	"nameko":     amoeba.Nameko,
	"openwhisk":  amoeba.OpenWhisk,
	"autoscale":  amoeba.Autoscale,
}

// simRun is what one amoeba-sim command line asks for: the scenario
// its flags build, and how to run and report it.
type simRun struct {
	sc        amoeba.Scenario
	variant   string
	days      float64
	dayLength float64
	shards    int
	timeline  bool
	events    string
	dumpReg   bool
	audit     bool
}

// parseFlags parses args on fs into a run, or returns the error that
// rejects them: a flag fs cannot parse, a negative -shards, an unknown
// benchmark or variant, or a load shape NewScenario refuses.
func parseFlags(fs *flag.FlagSet, args []string) (simRun, error) {
	var (
		benchName = fs.String("bench", "dd", "benchmark: float, matmul, linpack, dd, cloud_stor")
		variant   = fs.String("variant", "amoeba", "system: amoeba, amoeba-nom, amoeba-nop, nameko, openwhisk, autoscale")
		days      = fs.Float64("days", 1, "virtual days to simulate")
		dayLength = fs.Float64("day-length", 3600, "virtual seconds per day")
		trough    = fs.Float64("trough", 0.2, "night trough as a fraction of peak load")
		seed      = fs.Uint64("seed", 0xA0EBA, "simulation seed")
		noBG      = fs.Bool("no-background", false, "disable the background co-tenants")
		timeline  = fs.Bool("timeline", false, "print the deploy-mode switch timeline")
		events    = fs.String("events", "", "write the telemetry event stream as JSON lines to this file")
		dumpReg   = fs.Bool("metrics-dump", false, "print Prometheus-text metrics after the run")
		audit     = fs.Bool("audit", false, "print the decision-audit and switch-span tables")
		shards    = fs.Int("shards", 0, "run on the sharded kernel with this many workers (0 = sequential kernel); output is identical for every positive value")
	)
	if err := fs.Parse(args); err != nil {
		return simRun{}, err
	}
	if *shards < 0 {
		return simRun{}, fmt.Errorf("-shards %d is negative (0 runs the sequential kernel)", *shards)
	}
	prof, err := amoeba.BenchmarkByName(*benchName)
	if err != nil {
		return simRun{}, err
	}
	v, ok := variants[*variant]
	if !ok {
		return simRun{}, fmt.Errorf("unknown variant %q", *variant)
	}
	opts := amoeba.DefaultScenarioOptions()
	opts.Days = *days
	opts.DayLength = amoeba.Seconds(*dayLength)
	opts.TroughFraction = amoeba.Fraction(*trough)
	opts.Seed = *seed
	opts.Background = !*noBG
	sc, err := amoeba.NewScenario(v, prof, opts)
	if err != nil {
		return simRun{}, err
	}
	return simRun{
		sc: sc, variant: *variant, days: *days, dayLength: *dayLength, shards: *shards,
		timeline: *timeline, events: *events, dumpReg: *dumpReg, audit: *audit,
	}, nil
}

func main() {
	// The command line's flag set exits with status 2 on a flag it
	// cannot parse; the other rejections exit the same way here.
	run, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	sc := run.sc
	prof := sc.Services[0].Profile

	// Telemetry: build one bus carrying every requested sink.
	var (
		bus     *amoeba.EventBus
		jsonl   *amoeba.EventJSONLWriter
		audits  *amoeba.AuditLog
		reg     *amoeba.MetricsRegistry
		flushFn func() error
	)
	if run.events != "" || run.dumpReg || run.audit {
		bus = amoeba.NewEventBus()
	}
	if run.events != "" {
		// Write-only: opened read-write, a pipe such as /dev/fd/3 would
		// keep a read end in this process, and a write after the reader
		// exits would block forever instead of failing.
		f, err := os.OpenFile(run.events, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		bw := bufio.NewWriter(f)
		jsonl = amoeba.NewEventJSONLWriter(bw)
		bus.Attach(jsonl)
		flushFn = func() error {
			if err := bw.Flush(); err != nil {
				return err
			}
			return f.Close()
		}
	}
	if run.dumpReg {
		reg = amoeba.NewMetricsRegistry()
		bus.Attach(amoeba.NewMetricsSink(reg))
	}
	if run.audit {
		audits = amoeba.NewAuditLog()
		bus.Attach(audits)
	}

	sc.Bus = bus
	fmt.Printf("running %s under %s for %.1f day(s) of %.0fs...\n",
		prof.Name, run.variant, run.days, run.dayLength)
	var res *amoeba.Result
	if run.shards > 0 {
		res = amoeba.RunSharded(sc, run.shards)
	} else {
		res = amoeba.Run(sc)
	}
	sr := res.Services[prof.Name]

	// A run whose horizon ends before any query finishes (say, in a
	// zero-load trough) has no latency sample to take a quantile of.
	var p95, qosMet interface{} = "n/a", "n/a"
	if sr.Collector.Count() > 0 {
		p95, qosMet = sr.Collector.P95(), sr.Collector.QoSMet()
	}
	t := report.NewTable("result", "metric", "value")
	t.AddRow("queries", sr.Collector.Count())
	t.AddRow("p95 latency (s)", p95)
	t.AddRow("QoS target (s)", prof.QoSTarget)
	t.AddRow("QoS met", qosMet)
	t.AddRow("violating queries", fmt.Sprintf("%.2f%%", 100*sr.Collector.ViolationFraction()))
	t.AddRow("served by IaaS", sr.Collector.BackendCount(amoeba.BackendIaaS))
	t.AddRow("served by serverless", sr.Collector.BackendCount(amoeba.BackendServerless))
	t.AddRow("switches to serverless", sr.Timeline.SwitchCount(amoeba.BackendServerless))
	t.AddRow("switches to IaaS", sr.Timeline.SwitchCount(amoeba.BackendIaaS))
	t.AddRow("blocked switch-ins", sr.BlockedSwitches)
	t.AddRow("CPU usage (core-s)", sr.TotalUsage().CPU)
	t.AddRow("memory usage (MB-s)", sr.TotalUsage().MemMB)
	t.AddRow("meter overhead (core-s)", res.MeterCPUSeconds)
	// Rejected arrival candidates are decided inside the generator and
	// never fire as kernel events (DESIGN.md §18).
	t.AddRow("simulated events (excl. rejected arrivals)", res.Events)
	fmt.Print(t.String())

	if run.timeline {
		tl := report.NewTable("switch timeline", "t_seconds", "to", "load_qps")
		for _, sw := range sr.Timeline.Switches {
			tl.AddRow(fmt.Sprintf("%.0f", sw.At), sw.To.String(), fmt.Sprintf("%.1f", sw.LoadQPS))
		}
		fmt.Print(tl.String())
	}
	if run.audit {
		evs := audits.Events()
		fmt.Print(amoeba.DecisionAuditTable(evs).String())
		fmt.Print(amoeba.SwitchSpanTable(evs).String())
	}
	if run.dumpReg {
		fmt.Println("metrics:")
		if err := reg.WritePrometheus(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if jsonl != nil {
		if err := jsonl.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "event stream: %v\n", err)
			os.Exit(1)
		}
		if err := flushFn(); err != nil {
			fmt.Fprintf(os.Stderr, "event stream: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d events to %s\n", jsonl.Count(), run.events)
	}
}
