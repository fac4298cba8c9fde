package obs

import (
	"testing"

	"amoeba/internal/units"
)

func TestPhaseValid(t *testing.T) {
	for _, p := range []Phase{PhaseQueueWait, PhaseColdStart, PhaseExec, PhaseDrain, PhaseRetry} {
		if !p.Valid() {
			t.Errorf("%q not valid", p)
		}
	}
	if Phase("warmup").Valid() {
		t.Error("unknown phase reported valid")
	}
}

func TestTracerInactive(t *testing.T) {
	for name, tr := range map[string]*Tracer{
		"nil":     nil,
		"nil-bus": NewTracer(nil),
		"no-sink": NewTracer(NewBus()),
	} {
		if tr.Active() {
			t.Fatalf("%s tracer reports active", name)
		}
		if id := tr.StartTrace(); id != 0 {
			t.Errorf("%s: StartTrace = %d, want 0", name, id)
		}
		if id := tr.NextSpan(); id != 0 {
			t.Errorf("%s: NextSpan = %d, want 0", name, id)
		}
		if qt := tr.StartQuery("svc"); qt != (QueryTrace{}) {
			t.Errorf("%s: StartQuery = %+v, want zero", name, qt)
		}
		h := tr.Begin(1, 1, 0, 0, PhaseExec, "svc", "iaas")
		if h.Open() {
			t.Errorf("%s: Begin returned an open handle", name)
		}
		tr.End(2, h) // must be a no-op, not a panic
		if openSpans(tr) != 0 {
			t.Errorf("%s: %d open spans on an inactive tracer", name, openSpans(tr))
		}
	}
	// The nil tracer also absorbs the cause registry.
	var nilT *Tracer
	nilT.SetCause("svc", 9)
	nilT.ClearCause("svc", 9)
	if nilT.CauseFor("svc") != 0 {
		t.Error("nil tracer returned a cause")
	}
}

// openSpans counts the spans tr holds open.
func openSpans(tr *Tracer) int {
	if tr == nil {
		return 0
	}
	return len(tr.slots) - len(tr.free)
}

func TestTracerSpanLifecycle(t *testing.T) {
	bus := NewBus()
	ring := NewRing(16)
	bus.Attach(ring)
	tr := NewTracer(bus)

	qt := tr.StartQuery("dd")
	if qt.Trace == 0 || qt.Span == 0 {
		t.Fatalf("StartQuery on an active tracer returned %+v", qt)
	}
	if qt.Cause != 0 {
		t.Fatalf("cause %d with no switch registered", qt.Cause)
	}

	h := tr.Begin(10, qt.Trace, qt.Span, 0, PhaseQueueWait, "dd", "iaas")
	if !h.Open() {
		t.Fatal("Begin on an active tracer returned the inert handle")
	}
	if openSpans(tr) != 1 {
		t.Fatalf("open spans = %d, want 1", openSpans(tr))
	}
	tr.End(12.5, h)
	if openSpans(tr) != 0 {
		t.Fatalf("open spans = %d after End, want 0", openSpans(tr))
	}

	evs := ring.Events()
	if len(evs) != 1 {
		t.Fatalf("%d events emitted, want 1", len(evs))
	}
	sp, ok := evs[0].(*PhaseSpan)
	if !ok {
		t.Fatalf("emitted %T, want *PhaseSpan", evs[0])
	}
	if sp.Kind != KindPhaseSpan {
		t.Errorf("kind %q not stamped", sp.Kind)
	}
	if sp.Trace != qt.Trace || sp.Parent != qt.Span || sp.Span == 0 {
		t.Errorf("span coordinates %+v do not link to query %+v", sp, qt)
	}
	if sp.Phase != PhaseQueueWait || sp.Service != "dd" || sp.Backend != "iaas" {
		t.Errorf("span identity fields wrong: %+v", sp)
	}
	if sp.Start != 10 || sp.End != 12.5 || sp.At != sp.End {
		t.Errorf("span interval wrong: %+v", sp)
	}
}

func TestTracerDropsZeroLengthSpans(t *testing.T) {
	bus := NewBus()
	ring := NewRing(16)
	bus.Attach(ring)
	tr := NewTracer(bus)

	h := tr.Begin(5, tr.StartTrace(), 0, 0, PhaseQueueWait, "dd", "iaas")
	tr.End(5, h) // zero queue wait: dropped, slot still recycled
	if n := len(ring.Events()); n != 0 {
		t.Fatalf("zero-length span emitted (%d events)", n)
	}
	if openSpans(tr) != 0 {
		t.Fatalf("open spans = %d, want 0", openSpans(tr))
	}
}

func TestTracerDoubleEndPanics(t *testing.T) {
	bus := NewBus()
	bus.Attach(&discardSink{})
	tr := NewTracer(bus)
	h := tr.Begin(1, tr.StartTrace(), 0, 0, PhaseExec, "dd", "iaas")
	tr.End(2, h)
	defer func() {
		if recover() == nil {
			t.Fatal("double End did not panic")
		}
	}()
	tr.End(3, h)
}

func TestTracerCauseRegistry(t *testing.T) {
	bus := NewBus()
	bus.Attach(&discardSink{})
	tr := NewTracer(bus)

	tr.SetCause("dd", 41)
	if qt := tr.StartQuery("dd"); qt.Cause != 41 {
		t.Fatalf("query cause %d, want 41", qt.Cause)
	}
	if qt := tr.StartQuery("other"); qt.Cause != 0 {
		t.Fatalf("unrelated service inherited cause %d", qt.Cause)
	}
	// A newer overlapping switch keeps its own registration: clearing
	// the old span must not remove the new one.
	tr.SetCause("dd", 99)
	tr.ClearCause("dd", 41)
	if c := tr.CauseFor("dd"); c != 99 {
		t.Fatalf("CauseFor = %d after stale clear, want 99", c)
	}
	tr.ClearCause("dd", 99)
	if c := tr.CauseFor("dd"); c != 0 {
		t.Fatalf("CauseFor = %d after clear, want 0", c)
	}
}

// TestZeroAllocSpanPath pins the tracer's two cost contracts: the
// unobserved path (nil or sinkless tracer) is allocation-free end to
// end, and the active path's pooled bookkeeping is allocation-free in
// steady state — only the emitted PhaseSpan record itself allocates,
// which a same-instant End never constructs.
//
//amoeba:alloctest obs.Tracer.Active obs.Tracer.StartTrace obs.Tracer.NextSpan
//amoeba:alloctest obs.Tracer.CauseFor obs.Tracer.StartQuery obs.Tracer.Begin obs.Tracer.End
func TestZeroAllocSpanPath(t *testing.T) {
	var nilT *Tracer
	inactive := NewTracer(NewBus())
	if avg := testing.AllocsPerRun(1000, func() {
		_ = nilT.Active()
		_ = nilT.StartTrace()
		_ = nilT.NextSpan()
		_ = nilT.CauseFor("dd")
		qt := nilT.StartQuery("dd")
		h := nilT.Begin(1, qt.Trace, qt.Span, 0, PhaseExec, "dd", "iaas")
		nilT.End(2, h)
		qt = inactive.StartQuery("dd")
		h = inactive.Begin(1, qt.Trace, qt.Span, 0, PhaseExec, "dd", "iaas")
		inactive.End(2, h)
	}); avg != 0 {
		t.Fatalf("unobserved span path allocates %.1f per cycle, want 0", avg)
	}

	bus := NewBus()
	bus.Attach(&discardSink{})
	active := NewTracer(bus)
	cycle := func() {
		qt := active.StartQuery("dd")
		h := active.Begin(3, qt.Trace, qt.Span, 0, PhaseExec, "dd", "serverless")
		active.End(3, h) // same instant: recycled without emitting
	}
	cycle() // grow the slab and freelist once
	if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
		t.Fatalf("active span bookkeeping allocates %.1f per cycle in steady state, want 0", avg)
	}
}

// TestZeroAllocMetricsFold pins the metrics fold path: with every
// series interned after the first event of each shape, folding the full
// event taxonomy allocates nothing per event (the CI gate budget is
// ≤ 4 allocs/event; the steady state is 0).
//
//amoeba:alloctest obs.MetricsSink.Consume
func TestZeroAllocMetricsFold(t *testing.T) {
	sink := NewMetricsSink(NewRegistry())
	events := []Event{
		&QueryComplete{At: 1, Service: "dd", Backend: "serverless", Latency: 0.01, ColdStart: 0.5},
		&ColdStart{At: 2, Service: "dd", Delay: 0.8, Prewarm: true},
		&DecisionEvent{At: 3, Service: "dd", Verdict: "stay-iaas",
			Pressure: [3]float64{0.1, 0.2, 0.3}, LoadQPS: 5, AdmissibleQPS: 9, Mu: 2},
		&SwitchSpan{At: 4, Service: "dd", From: "iaas", To: "serverless", Start: 3, End: 4},
		&HeartbeatSample{At: 5, Service: "dd", Observed: 1.2},
		&MeterSample{At: 6, Latency: [3]units.Seconds{0.01, 0.02, 0.03}, Pressure: [3]float64{0.4, 0.5, 0.6}},
		&PhaseSpan{At: 7, Trace: 1, Span: 2, Phase: PhaseExec, Service: "dd", Start: 6, End: 7},
	}
	for _, ev := range events {
		stamp(ev)
		sink.Consume(ev) // intern every series this shape touches
	}
	avg := testing.AllocsPerRun(1000, func() {
		for _, ev := range events {
			sink.Consume(ev)
		}
	})
	if avg != 0 {
		t.Fatalf("metrics fold allocates %.2f per %d-event batch in steady state, want 0", avg, len(events))
	}
}
