// Package obs is the unified telemetry layer: a deterministic,
// sim-clock-driven event bus with pluggable sinks, plus a bounded
// metric registry for counter/gauge/histogram exposition.
//
// Amoeba's whole value is a runtime decision — the §IV discriminant
// (Eq. 5) fed by the predicted per-container capacity μ_n (Eq. 6) — and
// this package makes every such decision, every switch-protocol phase
// (§V prewarm → ack → flip → drain → release), and every platform signal
// (cold starts, meter probes, heartbeat calibrations, completed queries)
// observable after the fact. The answer to "why did it switch at
// t=437s?" is one DecisionEvent plus one SwitchSpan in the event log,
// not a debugger session.
//
// Determinism contract: every event timestamp comes from the simulation
// clock — never the wall clock — and events are emitted from within
// simulator callbacks on a single goroutine, so the event stream of a
// run is a pure function of (scenario, seed). Two identical-seed runs
// produce byte-identical JSONL streams; the nodeterminism analyzer
// machine-checks the no-wall-clock half of the contract.
//
// Overhead contract: emission sites guard with Bus.Active() before
// constructing an event, so an unobserved run (nil bus or no sinks)
// pays one nil check and one branch per site — zero allocations,
// benchmarked by BenchmarkEventEmit and pinned by a zero-alloc test.
//
// Lending contract (DESIGN.md §21): an emitted event is lent to the
// sinks, not given. Sinks run synchronously inside the simulation event
// that emitted, and each borrows the event only until its Consume
// returns, so the per-query emitters reuse one struct for every event
// they emit. A sink that keeps an event keeps a copy: Buffer and Ring
// copy what they keep, and JSONLWriter copies each event into a batch
// that an encoder goroutine of its own serializes. That goroutine is the
// only concurrency in the package; it reads the writer's copies, never
// the model, and Bus.Flush waits for it.
package obs

import "amoeba/internal/units"

// Kind discriminates event types in the serialized stream. The set is
// closed: every switch over kinds must name all seven members, so
// adding an eighth kind breaks the build at every decode and fold site
// instead of silently dropping events.
//
//amoeba:enum
type Kind string

// The event taxonomy. Each kind corresponds to exactly one concrete
// event struct in this package.
const (
	// KindQueryComplete is one finished query with its latency anatomy.
	KindQueryComplete Kind = "query_complete"
	// KindColdStart is one container start completing (cold or prewarm).
	KindColdStart Kind = "cold_start"
	// KindDecision is one controller decision period with the full
	// Eq. 5 discriminant inputs and outputs.
	KindDecision Kind = "decision"
	// KindSwitchSpan is one deploy-mode transition with per-phase
	// durations of the §V switch protocol.
	KindSwitchSpan Kind = "switch_span"
	// KindHeartbeat is one engine→monitor calibration sample (§VI-A).
	KindHeartbeat Kind = "heartbeat"
	// KindMeterSample is one monitor pressure refresh from the three
	// contention meters (§IV-B).
	KindMeterSample Kind = "meter_sample"
	// KindPhaseSpan is one closed phase interval of a traced query or
	// switch (queue wait, cold start, exec, drain, retry).
	KindPhaseSpan Kind = "phase_span"
)

// Event is one telemetry record. Concrete events are emitted as
// pointers; EventTime returns the sim-clock instant the event was
// emitted at, which is non-decreasing over a run's stream. The
// implementing types form a closed set mirroring the Kind taxonomy;
// type switches over Event must cover every one of them.
//
//amoeba:enum
type Event interface {
	EventKind() Kind
	EventTime() units.Seconds
}

// Sink consumes emitted events. Sinks run synchronously inside the
// simulation event that emitted, so they must not re-enter the
// simulator. Consume borrows ev until it returns: the emitter may
// overwrite the struct with its next event, so a sink that keeps an
// event keeps a copy. A sink that buffers work has a Flush() error
// method, which Bus.Flush calls.
type Sink interface {
	Consume(Event)
}

// Bus fans emitted events out to its sinks. A nil *Bus is valid and
// inert, so components can hold one unconditionally. The zero value is
// an active bus with no sinks.
//
// The bus is not safe for concurrent use — like the simulator it serves,
// it lives on one goroutine; parallel experiment sweeps attach one bus
// per simulation.
type Bus struct {
	sinks []Sink
}

// NewBus returns an empty bus.
func NewBus() *Bus { return &Bus{} }

// Attach adds a sink. Events emitted before the first Attach are lost by
// design: observation is opt-in per run.
func (b *Bus) Attach(s Sink) {
	b.sinks = append(b.sinks, s)
}

// Active reports whether emitting would reach any sink. Emission sites
// must guard with it before constructing an event — that guard is the
// zero-overhead fast path of the package contract.
//
//amoeba:noalloc
func (b *Bus) Active() bool { return b != nil && len(b.sinks) > 0 }

// Emit stamps the event's Kind field and lends it to every sink in
// attach order; the caller may reuse ev once Emit returns. Emitting on
// an inactive bus is a no-op.
//
//amoeba:noalloc
func (b *Bus) Emit(ev Event) {
	if !b.Active() {
		return
	}
	stamp(ev)
	for _, s := range b.sinks {
		s.Consume(ev)
	}
}

// Flush flushes every attached sink that has a Flush() error method,
// in attach order, and returns the first error. For a JSONLWriter that
// means every event emitted so far has been written and its encoder
// goroutine has exited. A nil bus has nothing to flush.
func (b *Bus) Flush() error {
	if b == nil {
		return nil
	}
	var first error
	for _, s := range b.sinks {
		if f, ok := s.(interface{ Flush() error }); ok {
			if err := f.Flush(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// stamp fills the serialized kind discriminator on the concrete struct.
// Doing it here keeps emission sites free of redundant Kind fields. It
// panics on an event type outside the closed taxonomy — an event that
// would serialize without a kind is an invariant violation, not a datum
// to drop silently.
//
//amoeba:noalloc
func stamp(ev Event) {
	switch e := ev.(type) {
	case *QueryComplete:
		e.Kind = KindQueryComplete
	case *ColdStart:
		e.Kind = KindColdStart
	case *DecisionEvent:
		e.Kind = KindDecision
	case *SwitchSpan:
		e.Kind = KindSwitchSpan
	case *HeartbeatSample:
		e.Kind = KindHeartbeat
	case *MeterSample:
		e.Kind = KindMeterSample
	case *PhaseSpan:
		e.Kind = KindPhaseSpan
	default:
		//amoeba:allowalloc(cold panic path: concat fires only on an event outside the closed taxonomy)
		panic("obs: event type outside the closed taxonomy: " + string(ev.EventKind()))
	}
}
