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
// with AMOEBA_TRACE_MAIN=1, so a test can check its exit status and
// output.
func TestMain(m *testing.M) {
	if os.Getenv("AMOEBA_TRACE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runTrace runs amoeba-trace with args and returns its exit status and
// standard error.
func runTrace(t *testing.T, args ...string) (int, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), "AMOEBA_TRACE_MAIN=1")
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
		t.Fatalf("amoeba-trace %v: %v", args, err)
		return 0, ""
	}
}

// TestRejectsBadFlags pins the flag values amoeba-trace rejects before
// sampling: non-finite or out-of-range -peak, -trough, -day, -samples and
// -burst-* values. The non-finite ones used to panic in trace.Resample.
// A rejected flag ends the run with exit status 2 and one line of error.
func TestRejectsBadFlags(t *testing.T) {
	bad := [][]string{
		{"-day", "NaN"},
		{"-day", "+Inf"},
		{"-day", "-Inf"},
		{"-day", "0"},
		{"-day", "-5"},
		{"-peak", "NaN"},
		{"-peak", "+Inf"},
		{"-peak", "16"},
		{"-peak", "10"},
		{"-trough", "NaN"},
		{"-trough", "+Inf"},
		{"-trough", "-1"},
		{"-samples", "1"},
		{"-burst-extra", "NaN"},
		{"-burst-extra", "+Inf"},
		{"-burst-extra", "-1"},
		{"-burst-from", "NaN"},
		{"-burst-from", "-Inf"},
		{"-burst-from", "-1"},
		{"-burst-from", "4000"},
		{"-burst-to", "NaN"},
		{"-burst-to", "+Inf"},
		{"-burst-to", "4000"},
		{"-burst-extra", "40", "-burst-from", "1500", "-burst-to", "1200"},
		{"-burst-extra", "40", "-burst-from", "1200", "-burst-to", "1200"},
	}
	for _, args := range bad {
		code, stderr := runTrace(t, args...)
		if code != 2 || strings.Count(stderr, "\n") != 1 {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 and one line", args, code, stderr)
		}
	}
	for _, args := range [][]string{
		nil,
		{"-trough", "0", "-samples", "2"},
		{"-burst-extra", "40", "-burst-from", "1200", "-burst-to", "1500"},
		{"-burst-extra", "40", "-burst-from", "0", "-burst-to", "3600"},
	} {
		if code, stderr := runTrace(t, args...); code != 0 {
			t.Errorf("%v: exit %d, stderr %q", args, code, stderr)
		}
	}
}
