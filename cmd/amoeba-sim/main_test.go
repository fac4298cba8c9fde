package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"amoeba"
)

// TestMain runs the command itself when the test binary is re-executed
// with AMOEBA_SIM_MAIN=1, so a test can check its exit status and output.
func TestMain(m *testing.M) {
	if os.Getenv("AMOEBA_SIM_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSim runs amoeba-sim with args and returns its exit status and
// standard error.
func runSim(t *testing.T, args ...string) (int, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), "AMOEBA_SIM_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit) && ctx.Err() == nil:
		return exit.ExitCode(), stderr.String()
	default:
		t.Fatalf("amoeba-sim %v: %v", args, err)
		return 0, ""
	}
}

// TestCheckHorizon pins the flags amoeba-sim rejects before a scenario
// runs: each load-shape row would otherwise panic or run forever,
// and a negative -shards would silently run the sequential kernel. A
// rejected flag ends the run with exit status 2 and one line of error.
// A run that finishes no query reports its latency as n/a and exits 0.
func TestCheckHorizon(t *testing.T) {
	bad := []struct{ days, dayLength, trough string }{
		{"1", "0", "0.2"},
		{"1", "-5", "0.2"},
		{"1", "NaN", "0.2"},
		{"1", "+Inf", "0.2"},
		{"0", "3600", "0.2"},
		{"-1", "3600", "0.2"},
		{"NaN", "3600", "0.2"},
		{"+Inf", "3600", "0.2"},
		{"1", "3600", "NaN"},
		{"1", "3600", "-0.1"},
		{"1", "3600", "1"},
		{"1", "3600", "1.5"},
		{"1", "1e300", "0.2"},
		{"1e300", "3600", "0.2"},
	}
	for _, c := range bad {
		code, stderr := runSim(t, "-bench", "float",
			"-days", c.days, "-day-length", c.dayLength, "-trough", c.trough)
		if code != 2 || strings.Count(stderr, "\n") != 1 {
			t.Errorf("days %s, day length %s, trough %s: exit %d, stderr %q; want exit 2 and one line",
				c.days, c.dayLength, c.trough, code, stderr)
		}
	}
	code, stderr := runSim(t, "-shards", "-1", "-day-length", "60", "-bench", "float")
	if code != 2 || strings.Count(stderr, "\n") != 1 {
		t.Errorf("shards -1: exit %d, stderr %q; want exit 2 and one line", code, stderr)
	}
	for _, trough := range []string{"0", "0.2"} {
		if code, stderr := runSim(t, "-bench", "float", "-day-length", "60", "-trough", trough); code != 0 {
			t.Errorf("trough %s: exit %d, stderr %q", trough, code, stderr)
		}
	}
	code, stderr = runSim(t, "-bench", "float", "-days", "0.01", "-day-length", "600", "-trough", "0")
	if code != 0 {
		t.Errorf("a run that finishes no query: exit %d, stderr %q", code, stderr)
	}
}

// TestEventsToClosedPipe: a stream written to a pipe whose reader exits
// ends the run with a write error. The child gets the pipe's write end
// as fd 3 and names it with -events /dev/fd/3; the test reads 100 bytes
// and closes the read end, and the child must exit non-zero within the
// harness's minute. Opened read-write, the pipe kept a read end in the
// child, so its writes blocked forever once the pipe filled.
func TestEventsToClosedPipe(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0],
		"-bench", "float", "-day-length", "600", "-events", "/dev/fd/3")
	cmd.Env = append(os.Environ(), "AMOEBA_SIM_MAIN=1")
	cmd.ExtraFiles = []*os.File{w}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if _, err := io.ReadFull(r, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	r.Close()
	err = cmd.Wait()
	var exit *exec.ExitError
	if ctx.Err() != nil || !errors.As(err, &exit) || exit.ExitCode() <= 0 {
		t.Fatalf("amoeba-sim writing to a closed pipe: %v (deadline %v); want a non-zero exit", err, ctx.Err())
	}
}

// fuzzHorizon caps the simulated time of each scenario FuzzSimFlags
// runs, so a fuzzed day of a week costs what a short one does.
const fuzzHorizon amoeba.Seconds = 30

// FuzzSimFlags feeds amoeba-sim's flag handling command lines split at
// white space. Each must end in an error, or in a scenario that
// validates and, its horizon capped at fuzzHorizon, runs to completion
// on the kernel the flags select. Neither may panic. The flags that
// name output files are parsed but never opened here.
func FuzzSimFlags(f *testing.F) {
	for _, line := range []string{
		"",
		"-bench float -day-length 60",
		"-bench dd -variant openwhisk -days 0.01 -day-length 600 -trough 0",
		"-bench linpack -shards 2 -no-background -seed 7",
		"-bench cloud_stor -variant autoscale -timeline -audit -metrics-dump",
		"-bench matmul -variant amoeba-nop -day-length 1e-3 -days 1e6",
		"-days NaN",
		"-day-length +Inf",
		"-trough 1",
		"-days 1e300",
		"-shards -1",
		"-bench nope",
		"-variant nope",
		"-days one",
		"-no-such-flag",
	} {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		fs := flag.NewFlagSet("amoeba-sim", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		run, err := parseFlags(fs, strings.Fields(line))
		if err != nil {
			return
		}
		sc := run.sc
		if err := sc.Validate(); err != nil {
			t.Fatalf("%q built a scenario that fails validation: %v", line, err)
		}
		if sc.Duration > fuzzHorizon {
			sc.Duration = fuzzHorizon
		}
		var res *amoeba.Result
		if run.shards > 0 {
			res = amoeba.RunSharded(sc, run.shards)
		} else {
			res = amoeba.Run(sc)
		}
		if name := sc.Services[0].Profile.Name; res.Services[name] == nil {
			t.Fatalf("%q: the run reports no result for %s", line, name)
		}
	})
}
