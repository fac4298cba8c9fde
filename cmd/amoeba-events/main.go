// Command amoeba-events validates, summarises, and exports a telemetry
// JSONL stream produced by amoeba-sim -events.
//
// Validation checks, in order, per line:
//
//  1. the line is a JSON object with a known "kind" discriminator,
//  2. it strictly decodes into that kind's event struct (unknown fields
//     are an error — they mean the stream and the schema diverged),
//  3. the "at" timestamps are non-decreasing over the stream (the
//     determinism contract emits in sim-clock order; per-trace
//     monotonicity follows from the global order),
//  4. decision events carry one of the six declared controller verdicts
//     (controller.Verdict.Valid) — a misspelled or novel verdict means
//     the audit trail and the enum diverged,
//  5. phase spans carry a valid phase, a positive duration, and are
//     emitted at their end instant (the tracer emits only closed
//     spans, so "every span closes" is checked structurally),
//
// and, over the whole stream once it ends:
//
//  6. span IDs are unique; every record is either fully traced or fully
//     untraced (trace == 0 iff span == 0),
//  7. every Parent reference resolves to an interval span of the same
//     trace, and the child's interval nests inside the parent's,
//  8. every causal edge resolves to a span of the right kind: Cause →
//     a switch span, MeterSpan → a meter sample, Decision → a decision
//     event. Forward references are legal — a query's root span is
//     emitted after its phase children.
//
// A run's horizon cuts off what is still open, and checks 7 and 8 accept
// exactly those references, and no others:
//
//   - a query still executing at the horizon emitted its closed
//     queue_wait and cold_start phases but never its root span, so the
//     Parent of such a phase may stay unresolved when its trace has no
//     exec phase and no query_complete;
//   - a switch still in flight at the horizon never emits its switch
//     span, so a Cause to a switch span may stay unresolved when its ID
//     is above every switch span ID of the referencing record's service
//     (span IDs only grow, so the switch that began last has the highest).
//
// Merged multi-shard streams (amoeba-sim -shards) pass the same checks
// unchanged: the epoch merge must preserve the global sim-clock order
// (check 3), trace/span IDs are allocated from disjoint strided
// per-cell namespaces so uniqueness must hold across the whole merged
// stream (check 6, reporting ErrIDCollision on a collision), and causal
// edges may cross namespaces (a heartbeat's meter_span points into the
// monitor daemon's namespace).
//
// Usage:
//
//	amoeba-events -validate events.jsonl
//	amoeba-events -validate -perfetto trace.json events.jsonl
//	amoeba-events -check-perfetto trace.json
//	amoeba-sim -events /dev/stdout ... | amoeba-events -validate
//
// Exit status is non-zero on the first violation. With -counts the
// per-kind event totals are printed after a clean validation. With
// -perfetto the validated stream is additionally exported as a Chrome
// trace-event JSON file loadable in Perfetto (ui.perfetto.dev);
// -check-perfetto structurally checks such an export and exits.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"amoeba/internal/controller"
	"amoeba/internal/obs"
	"amoeba/internal/units"
)

// ErrIDCollision marks a span ID declared twice in one stream. Within a
// single simulation it means the tracer's counter discipline broke; in
// a merged multi-shard stream it means two cell namespaces overlapped
// (the strided allocation should make that impossible). Callers match
// it with errors.Is.
var ErrIDCollision = errors.New("span ID collision")

func main() {
	var (
		validate = flag.Bool("validate", false, "strictly validate the stream (required unless -check-perfetto)")
		counts   = flag.Bool("counts", false, "print per-kind event totals after validating")
		perfetto = flag.String("perfetto", "", "after validating, write a Chrome trace-event (Perfetto) JSON file here")
		checkPf  = flag.String("check-perfetto", "", "structurally check an exported Perfetto JSON file and exit")
	)
	flag.Parse()
	if *checkPf != "" {
		if err := checkPerfettoFile(*checkPf); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", *checkPf, err)
			os.Exit(1)
		}
		fmt.Printf("%s: perfetto trace OK\n", *checkPf)
		return
	}
	if !*validate {
		fmt.Fprintln(os.Stderr, "usage: amoeba-events -validate [-counts] [-perfetto out.json] [file.jsonl]")
		fmt.Fprintln(os.Stderr, "       amoeba-events -check-perfetto trace.json")
		os.Exit(2)
	}

	in := io.Reader(os.Stdin)
	name := "stdin"
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		in, name = f, flag.Arg(0)
	}

	var exp *perfettoExporter
	var visit func(obs.Event)
	if *perfetto != "" {
		exp = &perfettoExporter{}
		visit = exp.visit
	}
	perKind, total, err := validateStream(in, visit)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		os.Exit(1)
	}
	fmt.Printf("%s: %d events valid\n", name, total)
	if *counts {
		kinds := make([]string, 0, len(perKind))
		for k := range perKind {
			kinds = append(kinds, string(k))
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			fmt.Printf("  %-16s %d\n", k, perKind[obs.Kind(k)])
		}
	}
	if exp != nil {
		if err := exp.writeFile(*perfetto); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", *perfetto, err)
			os.Exit(1)
		}
		fmt.Printf("%s: %d trace events\n", *perfetto, exp.emitted)
	}
}

// maxLine is the size of the scanner's largest buffer: the validator
// reads lines of up to maxLine-1 bytes, newline excluded, and rejects
// longer ones.
const maxLine = 1 << 20

// validateStream checks every line of the stream and the whole-stream
// trace invariants; it returns per-kind counts and the total on
// success, or the first violation. visit, when non-nil, sees every
// decoded event in stream order after it validated.
func validateStream(r io.Reader, visit func(obs.Event)) (map[obs.Kind]int, int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), maxLine)
	perKind := map[obs.Kind]int{}
	total := 0
	last := units.Seconds(0)
	lineNo := 0
	tc := newTraceChecker()
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var probe struct {
			Kind obs.Kind `json:"kind"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return nil, 0, fmt.Errorf("line %d: not a JSON object: %v", lineNo, err)
		}
		ev, err := decodeStrict(probe.Kind, line)
		if err != nil {
			return nil, 0, fmt.Errorf("line %d: %v", lineNo, err)
		}
		if at := ev.EventTime(); at < last {
			return nil, 0, fmt.Errorf("line %d: timestamp %v before previous %v — stream not in sim-clock order",
				lineNo, at, last)
		} else {
			last = at
		}
		if err := tc.observe(ev, lineNo); err != nil {
			return nil, 0, err
		}
		if visit != nil {
			visit(ev)
		}
		perKind[probe.Kind]++
		total++
	}
	if err := sc.Err(); errors.Is(err, bufio.ErrTooLong) {
		return nil, 0, fmt.Errorf("line %d: longer than %d bytes", lineNo+1, maxLine-1)
	} else if err != nil {
		return nil, 0, err
	}
	if err := tc.finish(); err != nil {
		return nil, 0, err
	}
	return perKind, total, nil
}

// decodeStrict decodes one line into the concrete struct of its kind,
// rejecting unknown fields.
func decodeStrict(k obs.Kind, line []byte) (obs.Event, error) {
	var ev obs.Event
	switch k {
	case obs.KindQueryComplete:
		ev = &obs.QueryComplete{}
	case obs.KindColdStart:
		ev = &obs.ColdStart{}
	case obs.KindDecision:
		ev = &obs.DecisionEvent{}
	case obs.KindSwitchSpan:
		ev = &obs.SwitchSpan{}
	case obs.KindHeartbeat:
		ev = &obs.HeartbeatSample{}
	case obs.KindMeterSample:
		ev = &obs.MeterSample{}
	case obs.KindPhaseSpan:
		ev = &obs.PhaseSpan{}
	default:
		return nil, fmt.Errorf("unknown event kind %q", k)
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(ev); err != nil {
		return nil, fmt.Errorf("kind %q: %v", k, err)
	}
	switch e := ev.(type) {
	case *obs.DecisionEvent:
		if v := controller.Verdict(e.Verdict); !v.Valid() {
			return nil, fmt.Errorf("kind %q: verdict %q outside the controller.Verdict enum", k, e.Verdict)
		}
	case *obs.PhaseSpan:
		if !e.Phase.Valid() {
			return nil, fmt.Errorf("kind %q: phase %q outside the obs.Phase enum", k, e.Phase)
		}
	case *obs.QueryComplete, *obs.ColdStart, *obs.SwitchSpan, *obs.HeartbeatSample, *obs.MeterSample:
		// No embedded enum field beyond the kind itself.
	}
	return ev, nil
}

// spanRec is one span the stream declared, addressable by SpanID.
type spanRec struct {
	kind       obs.Kind
	trace      obs.TraceID
	start, end units.Seconds
	interval   bool // instants (decision, heartbeat, meter) are points
	line       int
}

// spanRef is one edge awaiting resolution at end of stream (forward
// references are legal: a query's root span follows its children).
type spanRef struct {
	line    int
	target  obs.SpanID
	what    string   // field name, for the error message
	want    obs.Kind // required kind of the target span
	service string   // the referencing record's service
	// nest, when set, additionally requires the referenced span to be an
	// interval of the same trace enclosing [start, end]; phase is the
	// referencing phase span's.
	nest       bool
	phase      obs.Phase
	trace      obs.TraceID
	start, end units.Seconds
}

// traceChecker accumulates the whole-stream causal-DAG invariants.
type traceChecker struct {
	spans map[obs.SpanID]spanRec
	refs  []spanRef
	// finished holds the traces whose query reached its exec phase or
	// completed; lastSwitch is each service's highest switch span ID.
	finished   map[obs.TraceID]bool
	lastSwitch map[string]obs.SpanID
}

func newTraceChecker() *traceChecker {
	return &traceChecker{
		spans:      map[obs.SpanID]spanRec{},
		finished:   map[obs.TraceID]bool{},
		lastSwitch: map[string]obs.SpanID{},
	}
}

// declare records a span the stream introduced, enforcing the paired
// zero rule and span-ID uniqueness.
func (tc *traceChecker) declare(line int, kind obs.Kind, trace obs.TraceID, span obs.SpanID,
	start, end units.Seconds, interval bool) error {

	if (trace == 0) != (span == 0) {
		return fmt.Errorf("line %d: %s: trace %d and span %d must both be zero or both be set",
			line, kind, trace, span)
	}
	if span == 0 {
		return nil // untraced record; nothing to register
	}
	if prev, dup := tc.spans[span]; dup {
		return fmt.Errorf("line %d: %s: %w: span %d already declared on line %d",
			line, kind, ErrIDCollision, span, prev.line)
	}
	tc.spans[span] = spanRec{kind: kind, trace: trace, start: start, end: end, interval: interval, line: line}
	return nil
}

// refer queues a causal edge from a record of service for end-of-stream
// resolution.
func (tc *traceChecker) refer(line int, target obs.SpanID, what string, want obs.Kind, service string) {
	if target == 0 {
		return
	}
	tc.refs = append(tc.refs, spanRef{line: line, target: target, what: what, want: want, service: service})
}

// observe folds one validated event into the checker.
func (tc *traceChecker) observe(ev obs.Event, line int) error {
	switch e := ev.(type) {
	case *obs.QueryComplete:
		if e.Arrived > e.At {
			return fmt.Errorf("line %d: query_complete: arrived %v after completion %v", line, e.Arrived, e.At)
		}
		if err := tc.declare(line, obs.KindQueryComplete, e.Trace, e.Span, e.Arrived, e.At, true); err != nil {
			return err
		}
		tc.finished[e.Trace] = true
		tc.refer(line, e.Cause, "cause", obs.KindSwitchSpan, e.Service)
	case *obs.PhaseSpan:
		if e.Trace == 0 || e.Span == 0 {
			return fmt.Errorf("line %d: phase_span: zero trace/span — phase spans exist only on traced runs", line)
		}
		if e.End <= e.Start {
			return fmt.Errorf("line %d: phase_span %d: non-positive duration [%v, %v] — zero-length phases are dropped at emit",
				line, e.Span, e.Start, e.End)
		}
		if e.At != e.End {
			return fmt.Errorf("line %d: phase_span %d: emitted at %v, not at its end %v — spans are emitted when they close",
				line, e.Span, e.At, e.End)
		}
		if err := tc.declare(line, obs.KindPhaseSpan, e.Trace, e.Span, e.Start, e.End, true); err != nil {
			return err
		}
		if e.Phase == obs.PhaseExec {
			tc.finished[e.Trace] = true
		}
		if e.Parent != 0 {
			tc.refs = append(tc.refs, spanRef{
				line: line, target: e.Parent, what: "parent", nest: true, phase: e.Phase,
				trace: e.Trace, start: e.Start, end: e.End,
			})
		}
		// A retry phase is caused by the dwell-held decision; every other
		// caused phase (displaced queries, prewarm cold starts) points at
		// the switch span doing the displacing.
		causeKind := obs.KindSwitchSpan
		if e.Phase == obs.PhaseRetry {
			causeKind = obs.KindDecision
		}
		tc.refer(line, e.Cause, "cause", causeKind, e.Service)
	case *obs.SwitchSpan:
		if e.Start > e.FlipAt || e.FlipAt > e.End {
			return fmt.Errorf("line %d: switch_span: instants not ordered: start %v, flip %v, end %v",
				line, e.Start, e.FlipAt, e.End)
		}
		if err := tc.declare(line, obs.KindSwitchSpan, e.Trace, e.Span, e.Start, e.End, true); err != nil {
			return err
		}
		if e.Span > tc.lastSwitch[e.Service] {
			tc.lastSwitch[e.Service] = e.Span
		}
		tc.refer(line, e.Decision, "decision_span", obs.KindDecision, e.Service)
	case *obs.DecisionEvent:
		if err := tc.declare(line, obs.KindDecision, e.Trace, e.Span, e.At, e.At, false); err != nil {
			return err
		}
		tc.refer(line, e.MeterSpan, "meter_span", obs.KindMeterSample, e.Service)
	case *obs.HeartbeatSample:
		if err := tc.declare(line, obs.KindHeartbeat, e.Trace, e.Span, e.At, e.At, false); err != nil {
			return err
		}
		tc.refer(line, e.MeterSpan, "meter_span", obs.KindMeterSample, e.Service)
	case *obs.MeterSample:
		if err := tc.declare(line, obs.KindMeterSample, e.Trace, e.Span, e.At, e.At, false); err != nil {
			return err
		}
	case *obs.ColdStart:
		// Cold starts carry no trace coordinates of their own; the
		// query-visible delay is the cold_start phase span.
	}
	return nil
}

// openAtHorizon reports whether an unresolved ref points at work the
// run's horizon cut off (see the command doc): the root span of a query
// still executing, or a switch span still in flight.
func (tc *traceChecker) openAtHorizon(ref spanRef) bool {
	if ref.nest {
		return (ref.phase == obs.PhaseQueueWait || ref.phase == obs.PhaseColdStart) && !tc.finished[ref.trace]
	}
	return ref.want == obs.KindSwitchSpan && ref.target > tc.lastSwitch[ref.service]
}

// finish resolves every queued edge once the stream ended.
func (tc *traceChecker) finish() error {
	for _, ref := range tc.refs {
		rec, ok := tc.spans[ref.target]
		if !ok && tc.openAtHorizon(ref) {
			continue
		}
		if !ok {
			what := ref.what
			if ref.nest {
				what = "parent"
			}
			return fmt.Errorf("line %d: %s span %d never appears in the stream — orphan reference",
				ref.line, what, ref.target)
		}
		if ref.nest {
			if !rec.interval {
				return fmt.Errorf("line %d: parent span %d (%s, line %d) is an instant, not an interval",
					ref.line, ref.target, rec.kind, rec.line)
			}
			if rec.trace != ref.trace {
				return fmt.Errorf("line %d: parent span %d belongs to trace %d, child to trace %d — parents must not cross traces",
					ref.line, ref.target, rec.trace, ref.trace)
			}
			if ref.start < rec.start || ref.end > rec.end {
				return fmt.Errorf("line %d: child [%v, %v] escapes parent span %d [%v, %v]",
					ref.line, ref.start, ref.end, ref.target, rec.start, rec.end)
			}
			continue
		}
		if rec.kind != ref.want {
			return fmt.Errorf("line %d: %s %d resolves to a %s span (line %d), want %s",
				ref.line, ref.what, ref.target, rec.kind, rec.line, ref.want)
		}
	}
	return nil
}
