package obs

import "io"

// JSONLWriter serializes every event as one JSON object per line, in
// emission order, through a typed encoder (DESIGN.md §19) that writes
// exactly the bytes encoding/json.Marshal would: each kind's fields in
// declaration order under their tag names. The encoder's output is a
// pure function of the event, and every timestamp comes from the sim
// clock, so the byte stream of a run is deterministic: identical
// scenario + seed ⇒ identical bytes.
//
// Errors are sticky: the first one is retained, that event and every
// later one are dropped, and Err reports it. An error is a failed
// write, a NaN or infinite float (JSON has no literal for either), or
// an event outside the closed taxonomy. A sink must not panic
// mid-simulation — losing telemetry is better than losing the run.
type JSONLWriter struct {
	w   io.Writer
	enc encoder
	err error
	n   int
}

// NewJSONLWriter wraps w. The caller owns buffering and closing.
func NewJSONLWriter(w io.Writer) *JSONLWriter { return &JSONLWriter{w: w} }

// Consume implements Sink. Each event is encoded into a line buffer the
// writer reuses and handed to the underlying writer in one Write call.
//
//amoeba:noalloc
func (j *JSONLWriter) Consume(ev Event) {
	if j.err != nil {
		return
	}
	line, err := j.enc.encode(ev)
	if err != nil {
		j.err = err
		return
	}
	if _, err := j.w.Write(line); err != nil {
		j.err = err
		return
	}
	j.n++
}

// Count returns the number of events written so far.
func (j *JSONLWriter) Count() int { return j.n }

// Err returns the first write or encoding error, if any.
func (j *JSONLWriter) Err() error { return j.err }

// Buffer is an unbounded in-memory sink retaining events in emission
// order. The sharded runtime attaches one per shard-local bus and
// drains them at every epoch barrier, merging the per-namespace
// sequences into the output stream in canonical order; the buffer
// therefore only ever holds one epoch's worth of events.
type Buffer struct {
	events []Event
}

// NewBuffer returns an empty buffer.
func NewBuffer() *Buffer { return &Buffer{} }

// Consume implements Sink.
func (b *Buffer) Consume(ev Event) { b.events = append(b.events, ev) }

// Events returns the retained events in emission order. The slice is
// owned by the buffer and invalidated by Reset.
func (b *Buffer) Events() []Event { return b.events }

// Reset drops the retained events, keeping the backing capacity.
// Emitted events are never recycled (downstream sinks may retain them);
// only the buffer's references are released.
func (b *Buffer) Reset() {
	for i := range b.events {
		b.events[i] = nil
	}
	b.events = b.events[:0]
}

// Ring is a bounded in-memory sink keeping the most recent events. It
// is the cheap always-on option: a run can carry a few thousand events
// for post-mortem rendering (decision-audit tables, switch timelines)
// without unbounded growth on long horizons.
type Ring struct {
	buf     []Event
	next    int
	wrapped bool
	seen    int
}

// NewRing returns a ring that retains the last n events. It panics if
// n is not positive.
func NewRing(n int) *Ring {
	if n <= 0 {
		panic("obs: ring capacity must be positive")
	}
	return &Ring{buf: make([]Event, n)}
}

// Consume implements Sink.
func (r *Ring) Consume(ev Event) {
	r.buf[r.next] = ev
	r.next++
	r.seen++
	if r.next == len(r.buf) {
		r.next = 0
		r.wrapped = true
	}
}

// Len returns the number of retained events (≤ capacity).
func (r *Ring) Len() int {
	if r.wrapped {
		return len(r.buf)
	}
	return r.next
}

// Seen returns the total number of events consumed, including evicted
// ones.
func (r *Ring) Seen() int { return r.seen }

// Events returns the retained events oldest-first.
func (r *Ring) Events() []Event {
	out := make([]Event, 0, r.Len())
	if r.wrapped {
		out = append(out, r.buf[r.next:]...)
	}
	out = append(out, r.buf[:r.next]...)
	return out
}

// Filter returns the retained events of one kind, oldest-first.
func (r *Ring) Filter(k Kind) []Event {
	var out []Event
	for _, ev := range r.Events() {
		if ev.EventKind() == k {
			out = append(out, ev)
		}
	}
	return out
}
