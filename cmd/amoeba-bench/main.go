// Command amoeba-bench is the repository benchmark. It runs one named
// workload per process through the public kernel entry points (core.Run,
// core.RunSharded) and prints every metric by name with its unit, and
// the operations attempted and failed; the last line of standard output
// is the result object.
//
//	amoeba-bench -workload amoeba-day -seed 1 -seconds 25 -trace 0
//
// With -trace 0 it reports the end-to-end metrics BENCHMARK.json lists;
// with -trace 1 a separate run profiles the program and reports the
// per-layer metrics, writing spans (Perfetto trace-event JSON), CPU
// profiles and a per-layer table under -out. -verify checks determinism,
// shard invariance and telemetry neutrality; -compare A B compares two
// directories of saved run outputs against the bounds in BENCHMARK.json.
// README.md documents the workloads, metrics and layers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (amoeba-day, openwhisk-overload, sharded-day, amoeba-observed)")
		seed    = flag.Uint64("seed", 0xA0EBA, "workload seed; every scenario seed derives from it")
		seconds = flag.Int("seconds", 25, "measurement budget per run, in seconds")
		// An int, not a bool flag, so that "--trace 1" parses as the flag
		// and its value.
		traced  = flag.Int("trace", 0, "1 runs the profiled per-layer measurement instead of the end-to-end one")
		outDir  = flag.String("out", ".bench_build/trace", "directory for a traced run's spans, profiles and layer table")
		verifyF = flag.Bool("verify", false, "check determinism, shard invariance and telemetry neutrality at -seed")
		compare = flag.Bool("compare", false, "compare two directories of saved run outputs: -compare A B")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fail(2, "usage: amoeba-bench -compare DIR_A DIR_B")
		}
		worse, err := compareRuns(flag.Arg(0), flag.Arg(1), benchJSON, os.Stdout)
		if err != nil {
			fail(2, err.Error())
		}
		if worse {
			os.Exit(1)
		}
	case *verifyF:
		if err := verify(*seed, 1, os.Stdout); err != nil {
			fail(1, err.Error())
		}
	default:
		w, err := lookupWorkload(*name)
		if err != nil {
			fail(2, err.Error())
		}
		if *traced != 0 && *traced != 1 {
			fail(2, "-trace takes 0 or 1")
		}
		if *seconds < 1 {
			fail(2, "-seconds must be positive")
		}
		rep, info, err := measure(w, runConfig{seed: *seed, seconds: *seconds, traced: *traced == 1, outDir: *outDir, scale: 1})
		if err != nil {
			fail(1, err.Error())
		}
		printJSON(info)
		printJSON(rep)
		if !rep.Correct {
			os.Exit(1)
		}
	}
}

func printJSON(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		fail(1, err.Error())
	}
	fmt.Println(string(data))
}

func fail(code int, msg string) {
	fmt.Fprintln(os.Stderr, "amoeba-bench:", msg)
	os.Exit(code)
}
