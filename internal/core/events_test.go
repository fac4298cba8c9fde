package core

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"

	"amoeba/internal/controller"
	"amoeba/internal/metrics"
	"amoeba/internal/obs"
	"amoeba/internal/stats"
	"amoeba/internal/trace"
	"amoeba/internal/units"
	"amoeba/internal/workload"
)

// eventDay is a compressed 900-second day: short enough to keep the
// telemetry tests fast, long enough that amoeba switches modes (the
// amoeba-sim smoke configuration).
const eventDay = 900.0

func eventScenario(seed uint64, bus *obs.Bus) Scenario {
	prof := workload.DD()
	return Scenario{
		Variant:    VariantAmoeba,
		Services:   []ServiceSpec{{Profile: prof, Trace: trace.NewDiurnal(prof.PeakQPS, prof.PeakQPS*0.2, eventDay, seed)}},
		Background: BackgroundTenants(eventDay, seed+7),
		Duration:   eventDay,
		Seed:       seed,
		Bus:        bus,
	}
}

// TestEventStreamDeterministic is the determinism contract end to end:
// two runs of the identical scenario and seed must serialize to
// byte-identical JSONL streams.
func TestEventStreamDeterministic(t *testing.T) {
	skipIfRace(t)
	run := func() []byte {
		var buf bytes.Buffer
		bus := obs.NewBus()
		w := obs.NewJSONLWriter(&buf)
		bus.Attach(w)
		Run(eventScenario(0xA0EBA, bus))
		if err := w.Err(); err != nil {
			t.Fatal(err)
		}
		if w.Count() == 0 {
			t.Fatal("run emitted no events")
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		i := 0
		for i < len(a) && i < len(b) && a[i] == b[i] {
			i++
		}
		t.Fatalf("identical-seed runs diverge at byte %d (lengths %d vs %d)", i, len(a), len(b))
	}
}

// TestEventStreamOrderedAndComplete checks the stream invariants the
// amoeba-events validator enforces: timestamps are non-decreasing and
// every expected kind appears for a scenario that switches modes.
func TestEventStreamOrderedAndComplete(t *testing.T) {
	skipIfRace(t)
	bus := obs.NewBus()
	ring := obs.NewRing(1 << 18)
	bus.Attach(ring)
	Run(eventScenario(0xA0EBA, bus))

	last := units.Seconds(0)
	kinds := map[obs.Kind]int{}
	for _, ev := range ring.Events() {
		if at := ev.EventTime(); at < last {
			t.Fatalf("event at %v after one at %v", at, last)
		} else {
			last = at
		}
		kinds[ev.EventKind()]++
	}
	for _, k := range []obs.Kind{
		obs.KindQueryComplete, obs.KindColdStart, obs.KindDecision,
		obs.KindSwitchSpan, obs.KindHeartbeat, obs.KindMeterSample,
		obs.KindPhaseSpan,
	} {
		if kinds[k] == 0 {
			t.Errorf("no %q events in a switching run", k)
		}
	}
}

// TestSwitchTimelineFromEvents is the acceptance check that every mode
// switch is explainable from the event log alone: the Fig. 12 switch
// timeline reconstructed purely from SwitchSpan records must match the
// engine's Timeline, and each switch must be preceded by a DecisionEvent
// whose verdict ordered it.
func TestSwitchTimelineFromEvents(t *testing.T) {
	skipIfRace(t)
	bus := obs.NewBus()
	ring := obs.NewRing(1 << 18)
	bus.Attach(ring)
	prof := workload.DD()
	res := Run(eventScenario(0xA0EBA, bus))
	sr := res.Services[prof.Name]
	if len(sr.Timeline.Switches) == 0 {
		t.Fatal("scenario produced no switches; the reconstruction test needs some")
	}

	var spans []*obs.SwitchSpan
	var decisions []*obs.DecisionEvent
	for _, ev := range ring.Events() {
		switch e := ev.(type) {
		case *obs.SwitchSpan:
			if e.Service == prof.Name {
				spans = append(spans, e)
			}
		case *obs.DecisionEvent:
			if e.Service == prof.Name {
				decisions = append(decisions, e)
			}
		}
	}

	// Reconstruct the timeline: one entry per span, at the route-flip
	// instant. Spans are emitted at release, so re-sort by FlipAt.
	type flip struct {
		at   float64
		to   string
		load float64
	}
	var rebuilt []flip
	for _, sp := range spans {
		rebuilt = append(rebuilt, flip{at: sp.FlipAt.Raw(), to: sp.To, load: sp.LoadQPS.Raw()})
	}
	for i := 1; i < len(rebuilt); i++ {
		if rebuilt[i].at < rebuilt[i-1].at {
			rebuilt[i], rebuilt[i-1] = rebuilt[i-1], rebuilt[i]
		}
	}

	if len(rebuilt) != len(sr.Timeline.Switches) {
		t.Fatalf("event log has %d switch spans, timeline has %d switches",
			len(rebuilt), len(sr.Timeline.Switches))
	}
	for i, sw := range sr.Timeline.Switches {
		got := rebuilt[i]
		if got.at != sw.At || got.to != sw.To.String() || got.load != sw.LoadQPS {
			t.Errorf("switch %d: events say (t=%.1f to=%s load=%.2f), timeline says (t=%.1f to=%s load=%.2f)",
				i, got.at, got.to, got.load, sw.At, sw.To.String(), sw.LoadQPS)
		}
	}

	// Every span must be ordered by a switch-verdict decision at its
	// start instant (the audit-trail completeness property).
	for _, sp := range spans {
		found := false
		for _, d := range decisions {
			v := controller.Verdict(d.Verdict)
			if d.At == sp.Start &&
				(v == controller.VerdictSwitchIn || v == controller.VerdictSwitchOut) &&
				d.Target == sp.To {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("switch span starting at %v to %s has no ordering DecisionEvent", sp.Start, sp.To)
		}
	}

	// Span phase accounting: a non-aborted span's phases tile [Start, End].
	for _, sp := range spans {
		if sp.Aborted {
			continue
		}
		sum := sp.Start + sp.PrewarmS + sp.AckS + sp.FlipS + sp.DrainS + sp.ReleaseS
		if diff := (sum - sp.End).Raw(); diff > 1e-9 || diff < -1e-9 {
			t.Errorf("span at %v: phases sum to %v, End is %v", sp.Start, sum, sp.End)
		}
		if sp.End < sp.FlipAt || sp.FlipAt < sp.Start {
			t.Errorf("span at %v: Start/FlipAt/End out of order", sp.Start)
		}
	}
}

// TestTraceDAGReconstruction is the tentpole acceptance check: the
// latency anatomy of a traced run must be reconstructable from spans
// alone. Every completed query is a traced root; its phase children
// tile the root interval exactly; the p95 and the per-60s-window QoS
// violation tallies recomputed purely from root spans match the
// engine's own Collector and WindowedViolations.
func TestTraceDAGReconstruction(t *testing.T) {
	skipIfRace(t)
	bus := obs.NewBus()
	ring := obs.NewRing(1 << 20)
	bus.Attach(ring)
	prof := workload.DD()
	res := Run(eventScenario(0xA0EBA, bus))
	sr := res.Services[prof.Name]

	children := map[obs.SpanID][]*obs.PhaseSpan{}
	var roots []*obs.QueryComplete
	for _, ev := range ring.Events() {
		switch e := ev.(type) {
		case *obs.PhaseSpan:
			if e.Parent != 0 {
				children[e.Parent] = append(children[e.Parent], e)
			}
		case *obs.QueryComplete:
			if e.Service == prof.Name {
				roots = append(roots, e)
			}
		}
	}
	if len(roots) == 0 {
		t.Fatal("no query roots in the stream")
	}
	if len(roots) != sr.Collector.Count() {
		t.Fatalf("%d query roots, collector observed %d", len(roots), sr.Collector.Count())
	}

	lat := stats.NewSample(len(roots))
	windows := map[float64]*metrics.ViolationWindow{}
	for _, qc := range roots {
		if qc.Trace == 0 || qc.Span == 0 {
			t.Fatalf("untraced query root at %v on a traced run", qc.At)
		}
		// The root interval is the latency; its phase children tile it
		// (zero-length phases are dropped and contribute zero).
		l := (qc.At - qc.Arrived).Raw()
		var sum float64
		for _, ph := range children[qc.Span] {
			if ph.Trace != qc.Trace {
				t.Fatalf("phase span %d crosses from trace %d into %d", ph.Span, ph.Trace, qc.Trace)
			}
			if ph.Start < qc.Arrived || ph.End > qc.At {
				t.Fatalf("phase %q [%v, %v] escapes root [%v, %v]",
					ph.Phase, ph.Start, ph.End, qc.Arrived, qc.At)
			}
			sum += (ph.End - ph.Start).Raw()
		}
		if diff := sum - l; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("query at %v: phases sum to %v, root interval is %v", qc.At, sum, l)
		}
		lat.Add(l)
		start := float64(int(qc.At.Raw()/60)) * 60
		w := windows[start]
		if w == nil {
			w = &metrics.ViolationWindow{Start: start}
			windows[start] = w
		}
		w.Queries++
		if l > prof.QoSTarget {
			w.Violations++
		}
	}

	exact := sr.Collector.P95()
	rebuilt := lat.P95()
	rel := (rebuilt - exact) / exact
	if rel < 0 {
		rel = -rel
	}
	if rel > 1e-6 {
		t.Errorf("span-reconstructed p95 %.9f vs collector %.9f (rel err %.2e)", rebuilt, exact, rel)
	}

	if len(sr.ViolationWindows) == 0 {
		t.Fatal("run closed no violation windows")
	}
	for _, w := range sr.ViolationWindows {
		got := windows[w.Start]
		if got == nil {
			if w.Queries != 0 {
				t.Errorf("window @%v: engine saw %d queries, spans saw none", w.Start, w.Queries)
			}
			continue
		}
		if got.Queries != w.Queries || got.Violations != w.Violations {
			t.Errorf("window @%v: spans say %d/%d violations, engine says %d/%d",
				w.Start, got.Violations, got.Queries, w.Violations, w.Queries)
		}
	}
}

// TestTraceCausalEdges checks the cross-trace edges: queries displaced
// while a switch is in flight carry the switch span as their Cause,
// drain phases parent to the switch span, the switch points back at the
// ordering decision, and decisions point at the meter sample their
// pressure inputs came from.
func TestTraceCausalEdges(t *testing.T) {
	skipIfRace(t)
	bus := obs.NewBus()
	ring := obs.NewRing(1 << 20)
	bus.Attach(ring)
	Run(eventScenario(0xA0EBA, bus))

	spans := map[obs.SpanID]obs.Kind{}
	var switches []*obs.SwitchSpan
	var caused []*obs.QueryComplete
	var drains []*obs.PhaseSpan
	var decisions []*obs.DecisionEvent
	for _, ev := range ring.Events() {
		switch e := ev.(type) {
		case *obs.SwitchSpan:
			spans[e.Span] = e.EventKind()
			switches = append(switches, e)
		case *obs.DecisionEvent:
			spans[e.Span] = e.EventKind()
			decisions = append(decisions, e)
		case *obs.MeterSample:
			spans[e.Span] = e.EventKind()
		case *obs.QueryComplete:
			if e.Cause != 0 {
				caused = append(caused, e)
			}
		case *obs.PhaseSpan:
			if e.Phase == obs.PhaseDrain {
				drains = append(drains, e)
			}
		}
	}
	if len(switches) == 0 {
		t.Fatal("scenario produced no switches")
	}
	if len(caused) == 0 {
		t.Fatal("no queries were displaced by a switch — the causal-edge path never ran")
	}
	for _, qc := range caused {
		if spans[qc.Cause] != obs.KindSwitchSpan {
			t.Fatalf("query cause %d resolves to %q, want a switch span", qc.Cause, spans[qc.Cause])
		}
	}
	if len(drains) == 0 {
		t.Fatal("no drain phase spans in a switching run")
	}
	for _, d := range drains {
		if spans[d.Parent] != obs.KindSwitchSpan {
			t.Fatalf("drain parent %d resolves to %q, want a switch span", d.Parent, spans[d.Parent])
		}
	}
	for _, sp := range switches {
		if sp.Decision == 0 || spans[sp.Decision] != obs.KindDecision {
			t.Fatalf("switch span %d decision edge %d resolves to %q, want a decision",
				sp.Span, sp.Decision, spans[sp.Decision])
		}
	}
	meterEdges := 0
	for _, d := range decisions {
		if d.MeterSpan != 0 {
			if spans[d.MeterSpan] != obs.KindMeterSample {
				t.Fatalf("decision meter edge %d resolves to %q, want a meter sample",
					d.MeterSpan, spans[d.MeterSpan])
			}
			meterEdges++
		}
	}
	if meterEdges == 0 {
		t.Fatal("no decision carries a meter-sample edge")
	}
}

// TestTraceStreamParallelDeterministic runs the traced scenario
// concurrently — each run with its own bus and tracer, the sweep
// driver's configuration — and requires every stream byte-identical to
// a sequential run. Dense per-run ID counters, not global ones, are
// what this pins.
func TestTraceStreamParallelDeterministic(t *testing.T) {
	skipIfRace(t)
	run := func() []byte {
		var buf bytes.Buffer
		bus := obs.NewBus()
		w := obs.NewJSONLWriter(&buf)
		bus.Attach(w)
		Run(eventScenario(0xA0EBA, bus))
		return buf.Bytes()
	}
	want := run()
	const n = 3
	got := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = run()
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if !bytes.Equal(g, want) {
			j := 0
			for j < len(g) && j < len(want) && g[j] == want[j] {
				j++
			}
			t.Fatalf("parallel run %d diverges from sequential at byte %d", i, j)
		}
	}
}

// TestMetricsSinkMatchesCollector cross-checks the registry sink against
// the run's own collector: both count the same completed queries.
func TestMetricsSinkMatchesCollector(t *testing.T) {
	skipIfRace(t)
	bus := obs.NewBus()
	reg := obs.NewRegistry()
	bus.Attach(obs.NewMetricsSink(reg))
	prof := workload.DD()
	res := Run(eventScenario(0xA0EBA, bus))
	sr := res.Services[prof.Name]

	got := reg.Counter(obs.Labeled("amoeba_queries_total",
		"service", prof.Name, "backend", metrics.BackendIaaS.String())).Value() +
		reg.Counter(obs.Labeled("amoeba_queries_total",
			"service", prof.Name, "backend", metrics.BackendServerless.String())).Value()
	if int(got) != sr.Collector.Count() {
		t.Errorf("registry counted %d %s queries, collector %d", got, prof.Name, sr.Collector.Count())
	}

	h := reg.Histogram(obs.Labeled("amoeba_latency_seconds", "service", prof.Name), 1e-3, 100, 32)
	if int(h.Count()) != sr.Collector.Count() {
		t.Errorf("latency histogram has %d observations, collector %d", h.Count(), sr.Collector.Count())
	}
	// The bounded histogram's p95 must sit within its error bound of the
	// collector's exact p95.
	exact := sr.Collector.P95()
	if exact > 0 {
		rel := (h.P95() - exact) / exact
		if rel < 0 {
			rel = -rel
		}
		if rel > 2.0/32 {
			t.Errorf("histogram p95 %.4f vs exact %.4f: rel err %.3f", h.P95(), exact, rel)
		}
	}
}

// panicSink panics on the n-th event it consumes.
type panicSink struct{ n int }

func (p *panicSink) Consume(obs.Event) {
	if p.n--; p.n == 0 {
		panic("sink failed")
	}
}

// TestRunPanickingSinkLeavesNoGoroutine aborts Run and RunSharded with
// a sink that panics partway through the stream. The JSONL writer
// attached before it has taken every event up to the panic: the
// deferred Bus.Flush must still write them all, and no goroutine the
// run started — the writer's encoder, a shard worker — may outlive it.
func TestRunPanickingSinkLeavesNoGoroutine(t *testing.T) {
	const n = 3000
	for _, shards := range []int{0, 2} {
		before := runtime.NumGoroutine()
		var buf bytes.Buffer
		w := obs.NewJSONLWriter(&buf)
		bus := obs.NewBus()
		bus.Attach(w)
		bus.Attach(&panicSink{n: n})
		sc := eventScenario(0xA0EBA, bus)
		sc.Duration = 120
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("shards=%d: the run ignored a panicking sink", shards)
				}
			}()
			if shards == 0 {
				Run(sc)
			} else {
				RunSharded(sc, shards)
			}
		}()
		awaitGoroutines(t, before, shards, "aborted")
		if lines := bytes.Count(buf.Bytes(), []byte("\n")); lines != n || w.Count() != n {
			t.Fatalf("shards=%d: %d lines written and Count %d, want the %d events before the panic", shards, lines, w.Count(), n)
		}
	}
}

// TestRunLeavesNoGoroutine checks that a finished Run and a finished
// RunSharded leave no goroutine behind: the helpers drawing the
// platforms' and generators' variates ahead (DESIGN.md §22) exit once
// their last batch is filled.
func TestRunLeavesNoGoroutine(t *testing.T) {
	for _, shards := range []int{0, 2} {
		before := runtime.NumGoroutine()
		sc := eventScenario(0xA0EBA, nil)
		sc.Duration = 120
		if shards == 0 {
			Run(sc)
		} else {
			RunSharded(sc, shards)
		}
		awaitGoroutines(t, before, shards, "finished")
	}
}

// awaitGoroutines waits up to ten seconds for the goroutine count to fall
// back to before, and fails the test if it does not.
func awaitGoroutines(t *testing.T, before, shards int, run string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("shards=%d: %d goroutines after the %s run, %d before", shards, runtime.NumGoroutine(), run, before)
		}
		runtime.Gosched()
	}
}
