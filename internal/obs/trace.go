package obs

import "amoeba/internal/units"

// Causal query tracing. Every query gets a TraceID at admission; the
// phases of its life (queue wait, cold start, execution) and the
// control-plane activity that shaped it (drain of the old backend,
// dwell-hold retries) are typed spans inside that trace, linked by
// parent and cause edges:
//
//   - Parent links nest: a PhaseSpan's Parent is its query's root span
//     (the QueryComplete record) or, for drain phases, the SwitchSpan;
//     child intervals lie inside the parent interval.
//   - Cause links cross traces: a query displaced by an in-progress
//     switch carries the switch span's ID as its Cause, a SwitchSpan
//     carries the DecisionEvent span that ordered it, and a heartbeat
//     carries the meter sample its features derived from.
//
// IDs are densely allocated uint64 counters per Tracer (per run), never
// random: the stream stays a pure function of (scenario, seed), and two
// runs of the same seed produce byte-identical trace JSONL even under a
// parallel sweep, because each simulation owns its own Tracer.
//
// The open-span bookkeeping is pooled (slab + freelist + generation
// counters, the sim-kernel idiom): Begin/End on an inactive tracer is a
// guarded no-op costing one branch, and an active tracer allocates
// nothing in steady state. The emitted PhaseSpan record is one struct
// the tracer reuses, since sinks borrow events only until Consume
// returns (DESIGN.md §21).

// TraceID identifies one causal tree in the event stream. IDs count up
// from 1 per run; 0 means untraced.
type TraceID uint64

// SpanID identifies one span (interval or instant record) in the
// stream, unique across all traces of a run; 0 means none.
type SpanID uint64

// Phase names the typed phases of a query's life and of the control
// plane's switching machinery. The set is closed: every switch over
// phases must name all five members.
//
//amoeba:enum
type Phase string

const (
	// PhaseQueueWait is the interval from arrival to dispatch (placement
	// on a warm container, or VM slot acquisition).
	PhaseQueueWait Phase = "queue_wait"
	// PhaseColdStart is a container cold start a query (or prewarm)
	// waited on.
	PhaseColdStart Phase = "cold_start"
	// PhaseExec is the busy interval on the backend: RPC processing,
	// code load, execution, and postprocessing.
	PhaseExec Phase = "exec"
	// PhaseDrain is the old backend finishing in-flight queries after a
	// route flip (§V-B), parented to the SwitchSpan.
	PhaseDrain Phase = "drain"
	// PhaseRetry is a wanted switch held back by the dwell guard: the
	// interval from the first held decision to the switch (or to the
	// want disappearing).
	PhaseRetry Phase = "retry"
)

// Valid reports whether p is a member of the closed phase set.
func (p Phase) Valid() bool {
	switch p {
	case PhaseQueueWait, PhaseColdStart, PhaseExec, PhaseDrain, PhaseRetry:
		return true
	default:
		return false
	}
}

// PhaseSpan is one closed phase interval. It is emitted once, at the
// instant the phase ends (At == End); zero-length phases are dropped at
// End, so every serialized span has positive duration.
type PhaseSpan struct {
	Kind  Kind          `json:"kind"`
	At    units.Seconds `json:"at"`
	Trace TraceID       `json:"trace"`
	Span  SpanID        `json:"span"`
	// Parent is the enclosing span (the query's root span, or the
	// SwitchSpan for drain phases); 0 for a root-less phase such as a
	// prewarm cold start.
	Parent SpanID `json:"parent,omitempty"`
	// Cause is the cross-trace causal edge (the switch span that
	// displaced this work), 0 if none.
	Cause   SpanID        `json:"cause,omitempty"`
	Phase   Phase         `json:"phase"`
	Service string        `json:"service"`
	Backend string        `json:"backend,omitempty"`
	Start   units.Seconds `json:"start"`
	End     units.Seconds `json:"end"`
}

// EventKind implements Event.
func (*PhaseSpan) EventKind() Kind { return KindPhaseSpan }

// EventTime implements Event.
func (e *PhaseSpan) EventTime() units.Seconds { return e.At }

// QueryTrace is the trace context carried with one in-flight query: its
// trace, its root span (the SpanID the final QueryComplete record is
// serialized under), and the causal edge to the switch span that was
// displacing the service when the query arrived. The zero value means
// untraced.
type QueryTrace struct {
	Trace TraceID
	Span  SpanID
	Cause SpanID
}

// SpanHandle refers to one open span slot in the tracer's pool. The
// zero value is inert: End on it is a no-op, so call sites need no
// active-tracer guards of their own. Handles are generation-counted;
// ending one twice panics instead of corrupting a recycled slot.
type SpanHandle struct {
	slot int32 // 1-based slot index; 0 = inert
	gen  uint32
}

// Open reports whether the handle refers to an open span.
func (h SpanHandle) Open() bool { return h.slot != 0 }

// spanSlot is the pooled bookkeeping for one open span.
type spanSlot struct {
	gen     uint32
	inUse   bool
	trace   TraceID
	span    SpanID
	parent  SpanID
	cause   SpanID
	phase   Phase
	service string
	backend string
	start   units.Seconds
}

// Tracer allocates trace/span IDs and tracks open spans for one
// simulation. Like the Bus it fronts, a Tracer belongs to one
// simulation goroutine, and a nil *Tracer is valid and inert, so
// components hold one unconditionally.
//
// A tracer allocates from an ID namespace (ns, stride): the n-th trace
// or span ID it hands out is ns+1 + (n-1)·stride. The default namespace
// is (0, 1) — the dense 1, 2, 3, … sequence. The sharded runtime gives
// every shard-local component group its own namespace with a common
// stride, so IDs stay unique across concurrently advancing shards and —
// because the namespace is keyed to the service, not the shard — the
// merged stream is byte-identical for every shard count.
type Tracer struct {
	bus       *Bus
	nextTrace TraceID
	nextSpan  SpanID
	stride    uint64
	slots     []spanSlot
	free      []int32
	// causes maps service name → the switch span currently displacing
	// that service's queries (set at switch start, cleared at close).
	causes map[string]SpanID
	// span is the record End emits, overwritten by every emission.
	span PhaseSpan
}

// NewTracer returns a tracer emitting on bus, allocating IDs from the
// dense default namespace. A nil bus yields an always-inactive tracer.
func NewTracer(bus *Bus) *Tracer {
	return NewTracerNS(bus, 0, 1)
}

// NewTracerNS returns a tracer emitting on bus whose trace and span IDs
// are drawn from namespace ns of stride interleaved namespaces: the
// allocation sequence is ns+1, ns+1+stride, ns+1+2·stride, …  Distinct
// namespaces under one stride never collide, and no namespace ever
// allocates ID 0 (the untraced sentinel). It panics unless
// 0 ≤ ns < stride.
func NewTracerNS(bus *Bus, ns, stride int) *Tracer {
	if stride < 1 || ns < 0 || ns >= stride {
		panic("obs: tracer namespace requires 0 <= ns < stride")
	}
	// nextTrace/nextSpan hold the last allocated ID; pre-seed them one
	// stride below the namespace's first ID (unsigned wraparound is fine:
	// the first += stride lands exactly on ns+1).
	return &Tracer{
		bus:       bus,
		nextTrace: TraceID(uint64(ns+1) - uint64(stride)),
		nextSpan:  SpanID(uint64(ns+1) - uint64(stride)),
		stride:    uint64(stride),
		causes:    make(map[string]SpanID),
	}
}

// Active reports whether spans would reach any sink. ID allocation and
// span bookkeeping short-circuit when inactive, so an unobserved run
// pays one branch per call site.
//
//amoeba:noalloc
func (t *Tracer) Active() bool { return t != nil && t.bus.Active() }

// StartTrace allocates a fresh trace ID (0 when inactive).
//
//amoeba:noalloc
func (t *Tracer) StartTrace() TraceID {
	if !t.Active() {
		return 0
	}
	t.nextTrace += TraceID(t.stride)
	return t.nextTrace
}

// NextSpan allocates a fresh span ID (0 when inactive).
//
//amoeba:noalloc
func (t *Tracer) NextSpan() SpanID {
	if !t.Active() {
		return 0
	}
	t.nextSpan += SpanID(t.stride)
	return t.nextSpan
}

// CauseFor returns the switch span currently displacing the named
// service's work, 0 if none.
//
//amoeba:noalloc
func (t *Tracer) CauseFor(service string) SpanID {
	if t == nil {
		return 0
	}
	return t.causes[service]
}

// StartQuery opens the trace context for one admitted query: a fresh
// trace, its root span ID, and the causal edge to any in-progress
// switch on the service. Returns the zero QueryTrace when inactive.
//
//amoeba:noalloc
func (t *Tracer) StartQuery(service string) QueryTrace {
	if !t.Active() {
		return QueryTrace{}
	}
	t.nextTrace += TraceID(t.stride)
	t.nextSpan += SpanID(t.stride)
	return QueryTrace{Trace: t.nextTrace, Span: t.nextSpan, Cause: t.causes[service]}
}

// SetCause registers span as the switch currently displacing the named
// service's queries.
func (t *Tracer) SetCause(service string, span SpanID) {
	if t == nil {
		return
	}
	t.causes[service] = span
}

// ClearCause unregisters span if it is still the service's registered
// cause (a newer overlapping switch keeps its own registration).
func (t *Tracer) ClearCause(service string, span SpanID) {
	if t == nil {
		return
	}
	if t.causes[service] == span {
		delete(t.causes, service)
	}
}

// Begin opens a phase span at sim instant at. It allocates the span's
// ID, parks the bookkeeping in a pooled slot, and returns a handle for
// End. Inactive tracer or zero trace returns the inert handle; the
// fast path (freelist hit) performs no allocation.
//
//amoeba:noalloc
func (t *Tracer) Begin(at units.Seconds, trace TraceID, parent, cause SpanID, phase Phase, service, backend string) SpanHandle {
	if !t.Active() || trace == 0 {
		return SpanHandle{}
	}
	t.nextSpan += SpanID(t.stride)
	if len(t.free) == 0 {
		return t.beginSlow(at, trace, parent, cause, phase, service, backend)
	}
	idx := t.free[len(t.free)-1]
	t.free = t.free[:len(t.free)-1]
	s := &t.slots[idx-1]
	s.inUse = true
	s.trace, s.span, s.parent, s.cause = trace, t.nextSpan, parent, cause
	s.phase, s.service, s.backend, s.start = phase, service, backend, at
	return SpanHandle{slot: idx, gen: s.gen}
}

// beginSlow grows the slab for a Begin that found the freelist empty.
func (t *Tracer) beginSlow(at units.Seconds, trace TraceID, parent, cause SpanID, phase Phase, service, backend string) SpanHandle {
	t.slots = append(t.slots, spanSlot{
		inUse: true, trace: trace, span: t.nextSpan, parent: parent,
		cause: cause, phase: phase, service: service, backend: backend, start: at,
	})
	return SpanHandle{slot: int32(len(t.slots)), gen: 0}
}

// End closes the span at sim instant at, emits its PhaseSpan record
// (unless the phase is zero-length — the breakdown fields on
// QueryComplete already record the zeros), and recycles the slot. End
// on the inert handle is a no-op; End on an already-ended handle
// panics.
//
//amoeba:noalloc
func (t *Tracer) End(at units.Seconds, h SpanHandle) {
	if h.slot == 0 {
		return
	}
	t.endSlow(at, h)
}

// endSlow is End's emit-and-recycle half, kept out of the annotated
// fast path because the freelist push may grow. The emitted record is
// the tracer's one reused PhaseSpan, lent to the sinks. It panics on a
// handle that was already ended or belongs to a recycled slot —
// silently observing a stale handle would corrupt another span's
// bookkeeping.
func (t *Tracer) endSlow(at units.Seconds, h SpanHandle) {
	s := &t.slots[h.slot-1]
	if !s.inUse || s.gen != h.gen {
		panic("obs: span handle ended twice or stale")
	}
	if at > s.start {
		t.span = PhaseSpan{
			At: at, Trace: s.trace, Span: s.span, Parent: s.parent, Cause: s.cause,
			Phase: s.phase, Service: s.service, Backend: s.backend,
			Start: s.start, End: at,
		}
		t.bus.Emit(&t.span)
	}
	s.inUse = false
	s.gen++
	s.service, s.backend = "", ""
	t.free = append(t.free, h.slot)
}
