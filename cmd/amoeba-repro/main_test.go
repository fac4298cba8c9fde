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
// with AMOEBA_REPRO_MAIN=1, so a test can check its exit status and
// output.
func TestMain(m *testing.M) {
	if os.Getenv("AMOEBA_REPRO_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runRepro runs amoeba-repro with args and returns its exit status and
// standard error.
func runRepro(t *testing.T, args ...string) (int, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), "AMOEBA_REPRO_MAIN=1")
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
		t.Fatalf("amoeba-repro %v: %v", args, err)
		return 0, ""
	}
}

// TestRejectsNegativeShards: a negative -shards would otherwise run the
// sequential kernel silently. It ends the run with exit status 2 and one
// line of error; a run of the static Table II exits 0.
func TestRejectsNegativeShards(t *testing.T) {
	if code, stderr := runRepro(t, "-shards", "-1", "-exp", "tab2"); code != 2 || strings.Count(stderr, "\n") != 1 {
		t.Errorf("-shards -1: exit %d, stderr %q; want exit 2 and one line", code, stderr)
	}
	if code, stderr := runRepro(t, "-exp", "tab2"); code != 0 {
		t.Errorf("-exp tab2: exit %d, stderr %q", code, stderr)
	}
}
