package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
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
// is built: each load-shape row would otherwise panic or run forever,
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
