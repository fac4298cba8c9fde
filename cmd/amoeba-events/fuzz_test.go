package main

import (
	"strings"
	"testing"

	"amoeba/internal/core"
	"amoeba/internal/obs"
	"amoeba/internal/workload"
)

// tracedLines returns the first line of every kind in the stream of a
// 300 s traced Amoeba day on dd, in stream order.
func tracedLines(tb testing.TB) []string {
	tb.Helper()
	lines, events := simStream(tb, core.VariantAmoeba, workload.DD(), 300, 1)
	seen := map[obs.Kind]bool{}
	var first []string
	for i, ev := range events {
		if k := ev.EventKind(); !seen[k] {
			seen[k] = true
			first = append(first, lines[i])
		}
	}
	if len(first) != 7 {
		tb.Fatalf("the traced run wrote %d of the 7 kinds", len(first))
	}
	return first
}

// FuzzValidateStream feeds the validator arbitrary streams: it returns
// an error, or per-kind counts that sum to the total, with every
// counted event visited; it never panics. The seeds are one line of
// every kind from a traced run, alone and together, and malformed
// lines.
func FuzzValidateStream(f *testing.F) {
	lines := tracedLines(f)
	for _, line := range lines {
		f.Add(line + "\n")
	}
	f.Add(strings.Join(lines, "\n"))
	for _, bad := range []string{
		"",
		"\n\n",
		"{",
		"null",
		"[]",
		`"query_complete"`,
		`{"kind":7}`,
		`{"kind":"bogus","at":1}`,
		`{"kind":"query_complete","at":1,"extra":true}`,
		`{"kind":"cold_start","at":-1e400}`,
		`{"kind":"decision","at":1,"verdict":"maybe"}`,
		`{"kind":"phase_span","at":2,"trace":1,"span":1,"phase":"nap","start":1,"end":2}`,
		`{"kind":"meter_sample","at":5}` + "\n" + `{"kind":"meter_sample","at":4}`,
		`{"kind":"heartbeat","at":1,"trace":1,"span":1,"meter_span":2}`,
	} {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, stream string) {
		visited := 0
		perKind, total, err := validateStream(strings.NewReader(stream), func(obs.Event) { visited++ })
		if err != nil {
			return
		}
		sum := 0
		for _, n := range perKind {
			sum += n
		}
		if sum != total || visited != total {
			t.Fatalf("per-kind counts sum to %d and %d events were visited, total %d", sum, visited, total)
		}
	})
}

// TestValidateRejectsLongLine: a line the scanner cannot hold is
// reported with its line number.
func TestValidateRejectsLongLine(t *testing.T) {
	stream := `{"kind":"meter_sample","at":1}` + "\n" + strings.Repeat("x", maxLine) + "\n"
	_, _, err := validateStream(strings.NewReader(stream), nil)
	if err == nil || !strings.HasPrefix(err.Error(), "line 2: ") {
		t.Fatalf("err = %v, want one naming line 2", err)
	}
}
