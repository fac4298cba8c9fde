package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"amoeba/internal/obs"
)

// jsonl marshals events into a JSONL stream, stamping kinds the way the
// bus does.
func jsonl(t *testing.T, events ...obs.Event) string {
	t.Helper()
	var b strings.Builder
	bus := obs.NewBus()
	bus.Attach(obs.NewJSONLWriter(&b))
	for _, ev := range events {
		bus.Emit(ev)
	}
	bus.Flush()
	return b.String()
}

// goodStream is a minimal causally-complete trace: a meter sample, a
// decision pointing at it, a switch ordered by the decision, a displaced
// query whose phases tile its root interval, and a drain phase parented
// to the switch.
func goodStream(t *testing.T) string {
	return jsonl(t,
		&obs.MeterSample{At: 1, Trace: 1, Span: 1, Pressure: [3]float64{0.1, 0.2, 0.3}},
		&obs.DecisionEvent{At: 2, Service: "dd", Verdict: "switch-in", Trace: 2, Span: 2, MeterSpan: 1},
		&obs.PhaseSpan{At: 6, Trace: 3, Span: 4, Parent: 5, Cause: 3,
			Phase: obs.PhaseQueueWait, Service: "dd", Backend: "serverless", Start: 4, End: 6},
		&obs.PhaseSpan{At: 8, Trace: 3, Span: 6, Parent: 5,
			Phase: obs.PhaseExec, Service: "dd", Backend: "serverless", Start: 6, End: 8},
		&obs.PhaseSpan{At: 9, Trace: 2, Span: 7, Parent: 3,
			Phase: obs.PhaseDrain, Service: "dd", Backend: "iaas", Start: 5, End: 9},
		&obs.SwitchSpan{At: 9, Service: "dd", From: "iaas", To: "serverless",
			Start: 2, FlipAt: 5, End: 9, Trace: 2, Span: 3, Decision: 2},
		&obs.QueryComplete{At: 9, Service: "dd", Backend: "serverless",
			Arrived: 4, Latency: 5, Trace: 3, Span: 5, Cause: 3},
	)
}

func TestValidateGoodStream(t *testing.T) {
	perKind, total, err := validateStream(strings.NewReader(goodStream(t)), nil)
	if err != nil {
		t.Fatalf("good stream rejected: %v", err)
	}
	if total != 7 {
		t.Fatalf("validated %d events, want 7", total)
	}
	if perKind[obs.KindPhaseSpan] != 3 {
		t.Fatalf("counted %d phase spans, want 3", perKind[obs.KindPhaseSpan])
	}
}

func TestValidateRejectsTraceViolations(t *testing.T) {
	cases := map[string]struct {
		stream string
		want   string
	}{
		"orphan parent": {
			jsonl(t, &obs.PhaseSpan{At: 2, Trace: 1, Span: 1, Parent: 99,
				Phase: obs.PhaseExec, Service: "dd", Start: 1, End: 2}),
			"never appears",
		},
		"child escapes parent": {
			jsonl(t,
				&obs.PhaseSpan{At: 5, Trace: 1, Span: 2, Parent: 1,
					Phase: obs.PhaseExec, Service: "dd", Start: 3, End: 5},
				&obs.QueryComplete{At: 9, Service: "dd", Arrived: 4, Trace: 1, Span: 1}),
			"escapes parent",
		},
		"parent crosses traces": {
			jsonl(t,
				&obs.PhaseSpan{At: 6, Trace: 2, Span: 2, Parent: 1,
					Phase: obs.PhaseExec, Service: "dd", Start: 5, End: 6},
				&obs.QueryComplete{At: 8, Service: "dd", Arrived: 4, Trace: 1, Span: 1}),
			"cross traces",
		},
		"parent is an instant": {
			jsonl(t,
				&obs.DecisionEvent{At: 1, Service: "dd", Verdict: "stay-iaas", Trace: 1, Span: 1},
				&obs.PhaseSpan{At: 3, Trace: 1, Span: 2, Parent: 1,
					Phase: obs.PhaseExec, Service: "dd", Start: 2, End: 3}),
			"instant, not an interval",
		},
		"duplicate span id": {
			jsonl(t,
				&obs.QueryComplete{At: 2, Service: "dd", Arrived: 1, Trace: 1, Span: 1},
				&obs.QueryComplete{At: 3, Service: "dd", Arrived: 2, Trace: 2, Span: 1}),
			"already declared",
		},
		"zero-length phase": {
			jsonl(t, &obs.PhaseSpan{At: 2, Trace: 1, Span: 1,
				Phase: obs.PhaseExec, Service: "dd", Start: 2, End: 2}),
			"non-positive duration",
		},
		"phase not emitted at end": {
			jsonl(t, &obs.PhaseSpan{At: 5, Trace: 1, Span: 1,
				Phase: obs.PhaseExec, Service: "dd", Start: 1, End: 2}),
			"not at its end",
		},
		"untraced phase span": {
			jsonl(t, &obs.PhaseSpan{At: 2, Trace: 0, Span: 0,
				Phase: obs.PhaseExec, Service: "dd", Start: 1, End: 2}),
			"zero trace/span",
		},
		"half-traced record": {
			jsonl(t, &obs.QueryComplete{At: 2, Service: "dd", Arrived: 1, Trace: 1, Span: 0}),
			"both be zero or both be set",
		},
		"cause of wrong kind": {
			jsonl(t,
				&obs.QueryComplete{At: 2, Service: "dd", Arrived: 1, Trace: 1, Span: 1},
				&obs.QueryComplete{At: 3, Service: "dd", Arrived: 2, Trace: 2, Span: 2, Cause: 1}),
			"want switch_span",
		},
		"unknown phase": {
			strings.Replace(
				jsonl(t, &obs.PhaseSpan{At: 2, Trace: 1, Span: 1,
					Phase: obs.PhaseExec, Service: "dd", Start: 1, End: 2}),
				`"phase":"exec"`, `"phase":"warmup"`, 1),
			"outside the obs.Phase enum",
		},
	}
	for name, tc := range cases {
		_, _, err := validateStream(strings.NewReader(tc.stream), nil)
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.want)
		}
	}
}

func TestPerfettoExportRoundTrip(t *testing.T) {
	exp := &perfettoExporter{}
	if _, _, err := validateStream(strings.NewReader(goodStream(t)), exp.visit); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := exp.writeFile(path); err != nil {
		t.Fatal(err)
	}
	if err := checkPerfettoFile(path); err != nil {
		t.Fatalf("exported trace fails its own checker: %v", err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var wrapper struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &wrapper); err != nil {
		t.Fatal(err)
	}
	var phases, durable, instants, counters int
	for _, ev := range wrapper.TraceEvents {
		switch ev.Ph {
		case "X":
			durable++
			if ev.Dur <= 0 {
				t.Errorf("X event %q has non-positive duration %g", ev.Name, ev.Dur)
			}
			if ev.Name == string(obs.PhaseExec) {
				phases++
				// 1e6 µs/s: the exec span [6, 8] must land at ts 6e6 for 2e6.
				if ev.Ts != 6e6 || ev.Dur != 2e6 {
					t.Errorf("exec span at ts=%g dur=%g, want 6e6/2e6", ev.Ts, ev.Dur)
				}
			}
		case "i":
			instants++
		case "C":
			counters++
		}
	}
	// 3 phase spans + 1 switch + 1 query root; 1 decision instant;
	// 1 pressure counter.
	if durable != 5 || instants != 1 || counters != 1 || phases != 1 {
		t.Errorf("event census X=%d i=%d C=%d exec=%d, want 5/1/1/1", durable, instants, counters, phases)
	}
}

func TestCheckPerfettoRejectsBrokenTraces(t *testing.T) {
	write := func(body string) string {
		path := filepath.Join(t.TempDir(), "t.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := map[string]struct{ body, want string }{
		"empty":        {`{"traceEvents":[]}`, "empty"},
		"unknown ph":   {`{"traceEvents":[{"name":"q","ph":"Z","pid":1}]}`, "unknown phase"},
		"nameless pid": {`{"traceEvents":[{"name":"q","ph":"X","pid":1,"dur":5}]}`, "no process_name"},
		"negative dur": {`{"traceEvents":[{"name":"process_name","ph":"M","pid":1,"args":{"name":"p"}},{"name":"q","ph":"X","pid":1,"dur":-1}]}`, "negative duration"},
	}
	for name, tc := range cases {
		err := checkPerfettoFile(write(tc.body))
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.want)
		}
	}
}
