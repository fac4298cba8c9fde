package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"amoeba/internal/core"
	"amoeba/internal/obs"
	"amoeba/internal/trace"
	"amoeba/internal/units"
	"amoeba/internal/workload"
)

// simStream runs the scenario `amoeba-sim -variant v -bench prof
// -day-length day -days days` builds and returns its stream as lines,
// each with its decoded event.
func simStream(tb testing.TB, v core.Variant, prof workload.Profile, day units.Seconds, days float64) ([]string, []obs.Event) {
	tb.Helper()
	const seed = 0xA0EBA
	var buf bytes.Buffer
	bus := obs.NewBus()
	bus.Attach(obs.NewJSONLWriter(&buf))
	core.Run(core.Scenario{
		Variant: v,
		Services: []core.ServiceSpec{{Profile: prof,
			Trace: trace.NewDiurnal(prof.PeakQPS, prof.PeakQPS*0.2, day.Raw(), seed)}},
		Background: core.BackgroundTenants(day, seed+7),
		Duration:   units.Scale(day, days),
		Seed:       seed,
		Bus:        bus,
	})
	var lines []string
	var events []obs.Event
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, maxLine)
	for sc.Scan() {
		var probe struct {
			Kind obs.Kind `json:"kind"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			tb.Fatal(err)
		}
		ev, err := decodeStrict(probe.Kind, sc.Bytes())
		if err != nil {
			tb.Fatal(err)
		}
		lines, events = append(lines, sc.Text()), append(events, ev)
	}
	if err := sc.Err(); err != nil {
		tb.Fatal(err)
	}
	return lines, events
}

// openRefs returns the references of a stream that resolve to no span,
// which only the horizon rules accept.
func openRefs(t *testing.T, events []obs.Event) []spanRef {
	t.Helper()
	tc := newTraceChecker()
	for i, ev := range events {
		if err := tc.observe(ev, i+1); err != nil {
			t.Fatal(err)
		}
	}
	var open []spanRef
	for _, ref := range tc.refs {
		if _, ok := tc.spans[ref.target]; !ok {
			open = append(open, ref)
		}
	}
	return open
}

// validateWithout validates the stream minus the lines whose events
// drop selects.
func validateWithout(lines []string, events []obs.Event, drop func(obs.Event) bool) error {
	var b strings.Builder
	for i, line := range lines {
		if !drop(events[i]) {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	_, _, err := validateStream(strings.NewReader(b.String()), nil)
	return err
}

// TestValidateQueryOpenAtHorizon: OpenWhisk overloads dd, so a run cut
// at a quarter of a 600 s day ends with queries still executing. Their
// closed queue_wait and cold_start phases point
// at root spans the stream never holds, and the validator accepts that.
// It still rejects a finished query whose query_complete is missing.
func TestValidateQueryOpenAtHorizon(t *testing.T) {
	lines, events := simStream(t, core.VariantOpenWhisk, workload.DD(), 600, 0.25)
	open := openRefs(t, events)
	if len(open) == 0 {
		t.Fatal("no query is open at the horizon; the run no longer exercises the case")
	}
	for _, ref := range open {
		if !ref.nest || (ref.phase != obs.PhaseQueueWait && ref.phase != obs.PhaseColdStart) {
			t.Fatalf("line %d: unresolved %s of a %q phase, want only queue_wait and cold_start parents",
				ref.line, ref.what, ref.phase)
		}
	}
	none := func(obs.Event) bool { return false }
	if err := validateWithout(lines, events, none); err != nil {
		t.Fatalf("horizon-cut stream rejected: %v", err)
	}

	var finished obs.TraceID
	for _, ev := range events {
		if qc, ok := ev.(*obs.QueryComplete); ok && qc.Trace != 0 {
			finished = qc.Trace
			break
		}
	}
	err := validateWithout(lines, events, func(ev obs.Event) bool {
		qc, ok := ev.(*obs.QueryComplete)
		return ok && qc.Trace == finished
	})
	if err == nil || !strings.Contains(err.Error(), "parent span") {
		t.Fatalf("stream without trace %d's query_complete: err = %v, want an orphan parent", finished, err)
	}
}

// TestValidateSwitchOpenAtHorizon: an Amoeba float run cut at 282 s of a
// 400 s day ends in its third switch, which runs from 280 s to 282.08 s. The queries admitted during it
// name its switch span as their cause, and the stream never holds it;
// the validator accepts that. It still rejects the stream once the first
// switch span, below the second, is missing.
func TestValidateSwitchOpenAtHorizon(t *testing.T) {
	lines, events := simStream(t, core.VariantAmoeba, workload.Float(), 400, 0.705)
	inFlight := 0
	for _, ref := range openRefs(t, events) {
		if !ref.nest && ref.want == obs.KindSwitchSpan {
			inFlight++
		}
	}
	if inFlight == 0 {
		t.Fatal("no switch is in flight at the horizon; the run no longer exercises the case")
	}
	none := func(obs.Event) bool { return false }
	if err := validateWithout(lines, events, none); err != nil {
		t.Fatalf("horizon-cut stream rejected: %v", err)
	}

	// Drop the first switch span and the drain phase it parents, so
	// only the cause edges of the queries it displaced point at it.
	var switches []obs.SpanID
	for _, ev := range events {
		if sw, ok := ev.(*obs.SwitchSpan); ok {
			switches = append(switches, sw.Span)
		}
	}
	if len(switches) < 2 {
		t.Fatalf("the run finished %d switches, want 2 or more", len(switches))
	}
	first := switches[0]
	err := validateWithout(lines, events, func(ev obs.Event) bool {
		switch e := ev.(type) {
		case *obs.SwitchSpan:
			return e.Span == first
		case *obs.PhaseSpan:
			return e.Parent == first
		}
		return false
	})
	if err == nil || !strings.Contains(err.Error(), "cause span") {
		t.Fatalf("stream without switch span %d: err = %v, want an orphan cause", first, err)
	}
}
