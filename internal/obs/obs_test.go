package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"amoeba/internal/units"
)

func TestNilBusIsInert(t *testing.T) {
	var b *Bus
	if b.Active() {
		t.Fatal("nil bus reports active")
	}
	// Must not panic.
	b.Emit(&ColdStart{At: 1})
}

func TestEmptyBusInactive(t *testing.T) {
	b := NewBus()
	if b.Active() {
		t.Fatal("sink-less bus reports active")
	}
	b.Emit(&ColdStart{At: 1}) // no-op, must not panic
}

func TestEmitStampsKindAndFansOut(t *testing.T) {
	b := NewBus()
	r1, r2 := NewRing(8), NewRing(8)
	b.Attach(r1)
	b.Attach(r2)
	if !b.Active() {
		t.Fatal("bus with sinks reports inactive")
	}
	ev := &DecisionEvent{At: 5, Service: "svc"}
	b.Emit(ev)
	if ev.Kind != KindDecision {
		t.Fatalf("Kind not stamped: %q", ev.Kind)
	}
	if r1.Len() != 1 || r2.Len() != 1 {
		t.Fatalf("fan-out missed a sink: %d, %d", r1.Len(), r2.Len())
	}
	// Sinks borrow events, so a ring keeps a copy: equal, not the same.
	got, ok := r1.Events()[0].(*DecisionEvent)
	if !ok || *got != *ev {
		t.Fatal("sink received a different event")
	}
	if got == ev {
		t.Fatal("ring kept the lent event instead of a copy")
	}
}

// TestEventKindsRoundTrip writes every kind through the JSONL writer and
// decodes each line back strictly, as amoeba-events -validate does: no
// unknown fields, the serialized kind equal to the method's, and every
// field restored exactly.
func TestEventKindsRoundTrip(t *testing.T) {
	strs := validUTF8()
	for off := range floatCorpus {
		events := newEvents()
		for _, ev := range events {
			src := corpusSource(off)
			src.str = cycle(strs, off)
			fillEvent(t, ev, src)
		}
		var buf bytes.Buffer
		b := NewBus()
		b.Attach(NewJSONLWriter(&buf))
		for _, ev := range events {
			b.Emit(ev)
		}
		b.Flush()
		lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
		if len(lines) != len(events) {
			t.Fatalf("%d lines for %d events", len(lines), len(events))
		}
		seen := map[Kind]bool{}
		for i, ev := range events {
			k := ev.EventKind()
			if seen[k] {
				t.Fatalf("duplicate kind %q", k)
			}
			seen[k] = true
			back := reflect.New(reflect.TypeOf(ev).Elem()).Interface()
			dec := json.NewDecoder(strings.NewReader(lines[i]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(back); err != nil {
				t.Fatalf("%s: %v\n%s", k, err, lines[i])
			}
			if got := Kind(reflect.ValueOf(back).Elem().FieldByName("Kind").String()); got != k {
				t.Fatalf("serialized kind %q != method kind %q", got, k)
			}
			if !reflect.DeepEqual(back, ev) {
				t.Fatalf("%s does not round-trip:\n%s\n%+v\n%+v", k, lines[i], back, ev)
			}
		}
		if len(seen) != 7 {
			t.Fatalf("expected 7 distinct kinds, saw %d", len(seen))
		}
	}
}

func TestJSONLWriterDeterministicBytes(t *testing.T) {
	run := func() []byte {
		var buf bytes.Buffer
		b := NewBus()
		b.Attach(NewJSONLWriter(&buf))
		b.Emit(&QueryComplete{At: 1.5, Service: "a", Backend: "iaas", Latency: 0.25})
		b.Emit(&ColdStart{At: 2, Service: "a", Delay: 0.8, Prewarm: true})
		b.Emit(&DecisionEvent{At: 10, Service: "a", Verdict: "stay-iaas"})
		b.Flush()
		return buf.Bytes()
	}
	a, c := run(), run()
	if !bytes.Equal(a, c) {
		t.Fatalf("identical emissions produced different bytes:\n%s\n---\n%s", a, c)
	}
	lines := bytes.Split(bytes.TrimSpace(a), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("expected 3 lines, got %d", len(lines))
	}
	for _, ln := range lines {
		if !json.Valid(ln) {
			t.Fatalf("invalid JSON line: %s", ln)
		}
	}
	// kind must be the first field so streams are cheaply greppable.
	if !bytes.HasPrefix(lines[0], []byte(`{"kind":"query_complete"`)) {
		t.Fatalf("kind not first field: %s", lines[0])
	}
}

type failWriter struct{ after int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.after <= 0 {
		return 0, errWrite
	}
	f.after--
	return len(p), nil
}

var errWrite = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "disk full" }

func TestJSONLWriterStickyError(t *testing.T) {
	j := NewJSONLWriter(&failWriter{after: 1})
	b := NewBus()
	b.Attach(j)
	b.Emit(&ColdStart{At: 1})
	b.Emit(&ColdStart{At: 2}) // fails
	b.Emit(&ColdStart{At: 3}) // dropped, must not panic
	if j.Count() != 1 {
		t.Fatalf("Count = %d, want 1", j.Count())
	}
	if j.Err() != errWrite {
		t.Fatalf("Err = %v, want sticky write error", j.Err())
	}
}

func TestRingWraparound(t *testing.T) {
	r := NewRing(3)
	for i := 1; i <= 5; i++ {
		r.Consume(&ColdStart{At: units.Seconds(i)})
	}
	if r.Seen() != 5 || r.Len() != 3 {
		t.Fatalf("Seen=%d Len=%d, want 5, 3", r.Seen(), r.Len())
	}
	got := r.Events()
	want := []units.Seconds{3, 4, 5}
	for i, ev := range got {
		if ev.EventTime() != want[i] {
			t.Fatalf("event %d at %v, want %v", i, ev.EventTime(), want[i])
		}
	}
}

func TestRingFilter(t *testing.T) {
	r := NewRing(10)
	b := NewBus()
	b.Attach(r)
	b.Emit(&ColdStart{At: 1})
	b.Emit(&DecisionEvent{At: 2})
	b.Emit(&ColdStart{At: 3})
	cold := r.Filter(KindColdStart)
	if len(cold) != 2 || cold[0].EventTime() != 1 || cold[1].EventTime() != 3 {
		t.Fatalf("Filter(cold_start) = %v", cold)
	}
	if len(r.Filter(KindSwitchSpan)) != 0 {
		t.Fatal("Filter of absent kind not empty")
	}
}

// TestAuditLogKeepsDecisionsAndSwitches: the log keeps a copy of every
// decision and switch span, however many other events pass, and an
// emitter reusing its event struct does not change a kept copy.
func TestAuditLogKeepsDecisionsAndSwitches(t *testing.T) {
	var audits AuditLog
	b := NewBus()
	b.Attach(&audits)
	d := &DecisionEvent{At: 10, Verdict: "stay-iaas"}
	for i := 0; i < 1000; i++ {
		b.Emit(&QueryComplete{At: 1})
	}
	b.Emit(d)
	d.At, d.Verdict = 20, "switch-in" // the emitter reuses its struct
	b.Emit(d)
	b.Emit(&ColdStart{At: 21})
	b.Emit(&SwitchSpan{At: 22, To: "serverless"})
	got := audits.Events()
	if len(got) != 3 {
		t.Fatalf("kept %d events, want 3", len(got))
	}
	first, ok := got[0].(*DecisionEvent)
	if !ok || first.At != 10 || first.Verdict != "stay-iaas" {
		t.Errorf("first kept event %+v, want the decision at 10 as emitted", got[0])
	}
	if got[1].EventTime() != 20 || got[2].EventKind() != KindSwitchSpan {
		t.Errorf("kept %v and %v, want the decision at 20, then the switch span", got[1], got[2])
	}
}

func TestRingPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRing(0) did not panic")
		}
	}()
	NewRing(0)
}

//amoeba:alloctest obs.Bus.Active obs.Bus.Emit
func TestEmitNoSinkZeroAlloc(t *testing.T) {
	var nilBus *Bus
	empty := NewBus()
	allocs := testing.AllocsPerRun(1000, func() {
		// The guarded emission idiom used at every instrumentation site.
		if nilBus.Active() {
			nilBus.Emit(&QueryComplete{At: 1, Service: "s"})
		}
		if empty.Active() {
			empty.Emit(&QueryComplete{At: 1, Service: "s"})
		}
	})
	if allocs != 0 {
		t.Fatalf("no-sink emission allocates %.1f per event, want 0", allocs)
	}
}

// discardSink counts events and drops them — the cheapest possible
// consumer, isolating the bus's own dispatch cost.
type discardSink struct{ n int }

func (d *discardSink) Consume(Event) { d.n++ }

// TestEmitActiveZeroAlloc asserts the dispatch itself — kind stamping
// plus the sink fan-out — allocates nothing once the event exists. The
// event literal is hoisted: allocating it is the emission site's cost,
// governed by the Active() guard, not the bus's.
//
//amoeba:alloctest obs.Bus.Emit obs.stamp
func TestEmitActiveZeroAlloc(t *testing.T) {
	bus := NewBus()
	sink := &discardSink{}
	bus.Attach(sink)
	ev := &QueryComplete{At: 1, Service: "s"}
	allocs := testing.AllocsPerRun(1000, func() {
		bus.Emit(ev)
	})
	if allocs != 0 {
		t.Fatalf("active emission allocates %.1f per event, want 0", allocs)
	}
	if sink.n == 0 {
		t.Fatal("sink saw no events")
	}
}

func TestAuditTable(t *testing.T) {
	events := []Event{
		&ColdStart{At: 1}, // skipped: not a decision
		&DecisionEvent{
			At: 60, Service: "dd", Mode: "iaas",
			LoadQPS: 12.5, Mu: 3.2, AdmissibleQPS: 40,
			Pressure: [3]float64{0.1, 0.2, 0.3},
			Verdict:  "stay-iaas", Reason: "load above margin",
		},
		&DecisionEvent{
			At: 120, Service: "dd", Mode: "iaas",
			Verdict: "switch-in", Reason: "load admissible",
		},
	}
	tbl := AuditTable(events)
	if tbl.Rows() != 2 {
		t.Fatalf("Rows = %d, want 2", tbl.Rows())
	}
	out := tbl.String()
	for _, want := range []string{"verdict", "stay-iaas", "switch-in", "12.50", "0.300", "load above margin"} {
		if !strings.Contains(out, want) {
			t.Fatalf("audit table missing %q:\n%s", want, out)
		}
	}
}

func TestSwitchTable(t *testing.T) {
	events := []Event{
		&SwitchSpan{
			At: 200, Service: "dd", From: "iaas", To: "serverless",
			Start: 180, FlipAt: 185, End: 200,
			PrewarmS: 5, DrainS: 10, Prewarmed: 4,
		},
		&SwitchSpan{
			At: 400, Service: "dd", From: "serverless", To: "iaas",
			Start: 390, End: 400, Aborted: true,
		},
	}
	tbl := SwitchTable(events)
	if tbl.Rows() != 2 {
		t.Fatalf("Rows = %d, want 2", tbl.Rows())
	}
	out := tbl.String()
	for _, want := range []string{"serverless", "20.00", "true"} {
		if !strings.Contains(out, want) {
			t.Fatalf("switch table missing %q:\n%s", want, out)
		}
	}
}
