package obs

import "io"

// The encoder pipeline's sizes (DESIGN.md §21).
const (
	// batchLen is the number of events one batch carries to the encoder
	// goroutine. A hand-off costs two channel operations and, when the
	// encoder had parked, a goroutine wake-up: microseconds, against a
	// few hundred nanoseconds to encode one event, so a batch spreads it
	// over hundreds of events. A batch of the stream's mix (half
	// QueryComplete, half PhaseSpan) holds about 75 KB, well inside a
	// core's L2 cache, so the encoder reads what the producer just
	// wrote from cache. 128 and 2048 measured within noise of 512.
	batchLen = 512
	// batchCount is the fixed number of batches a writer recycles: one
	// the simulation goroutine fills, one the encoder writes, and two
	// queued between them to absorb bursts without stalling the
	// producer. Two batches measured about 10% slower on amoeba-observed,
	// eight no faster than four. The count bounds the writer's memory:
	// once all are in use, Consume waits for the encoder to free one.
	batchCount = 4
)

// JSONLWriter serializes every event as one JSON object per line, in
// emission order, through a typed encoder (DESIGN.md §19) that writes
// exactly the bytes encoding/json.Marshal would: each kind's fields in
// declaration order under their tag names. The encoder's output is a
// pure function of the event, and every timestamp comes from the sim
// clock, so the byte stream of a run is deterministic: identical
// scenario + seed ⇒ identical bytes.
//
// Encoding runs on a goroutine of the writer's own (DESIGN.md §21).
// Consume copies the event into the current batch; a full batch goes to
// the encoder goroutine, which writes its events in order, one Write per
// line. The writer recycles batchCount batches, and Consume waits for a
// free one when the encoder falls behind, so memory stays bounded. The
// encoder goroutine is the only caller of the underlying writer, and it
// touches nothing but the writer's own state. Flush hands over the
// partial batch and returns once the goroutine has written it and
// exited; Count and Err flush first. core.Run and core.RunSharded flush
// the scenario's bus before they return, even by a panic; a caller
// driving a bus itself flushes the writer before reading what it wrote.
// Like the bus, a writer belongs to one goroutine: its methods must not
// be called concurrently.
//
// Errors are sticky: the first one is retained, that event and every
// later one are dropped, and Err reports it. An error is a failed
// write, a NaN or infinite float (JSON has no literal for either), or
// an event outside the closed taxonomy. A sink must not panic
// mid-simulation — losing telemetry is better than losing the run. The
// underlying writer reports failure through its error: a Write that
// panics does so on the encoder goroutine, which ends the program.
type JSONLWriter struct {
	w io.Writer
	// The encoder goroutine owns enc, err and n while it runs; the
	// writer's methods read them only after it has exited.
	enc encoder
	err error
	n   int
	// cur is the batch Consume fills, nil while none is held; free holds
	// the batches ready to fill. full carries filled batches to the
	// encoder goroutine in emission order; it is nil while no goroutine
	// runs, and done is closed when the goroutine exits.
	cur  *batch
	free chan *batch
	full chan *batch
	done chan struct{}
}

// batch is a run of consecutive events, copied by value. Its slices
// grow while it is first filled and are reused after.
type batch struct {
	events []Event // emission order; each points into copies
	copies copies
}

// NewJSONLWriter wraps w. The caller owns buffering and closing.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	j := &JSONLWriter{w: w, free: make(chan *batch, batchCount)}
	for i := 0; i < batchCount; i++ {
		j.free <- new(batch)
	}
	return j
}

// Consume implements Sink. It copies the event into the current batch,
// taking a free batch first if it holds none (which waits while the
// encoder has them all), and hands a full batch to the encoder
// goroutine.
//
//amoeba:noalloc
func (j *JSONLWriter) Consume(ev Event) {
	b := j.cur
	if b == nil {
		b = <-j.free
		j.cur = b
	}
	b.put(ev)
	if len(b.events) == batchLen {
		j.cur = nil
		j.handOff(b)
	}
}

// put appends a copy of ev. It is kept out of Consume's noalloc body
// because the appends grow the batch's slices on its first fill.
func (b *batch) put(ev Event) { b.events = append(b.events, b.copies.keep(ev)) }

// handOff queues b for the encoder goroutine, starting one if none
// runs. full holds every batch there is, so the send never blocks.
func (j *JSONLWriter) handOff(b *batch) {
	if j.full == nil {
		full, free, done := make(chan *batch, batchCount), j.free, make(chan struct{})
		j.full, j.done = full, done
		go func() {
			defer close(done)
			for b := range full {
				j.write(b)
				free <- b
			}
		}()
	}
	j.full <- b
}

// write encodes b's events in order, one Write per line, until the
// first error, and empties b for reuse.
func (j *JSONLWriter) write(b *batch) {
	for _, ev := range b.events {
		if j.err != nil {
			break
		}
		line, err := j.enc.encode(ev)
		if err == nil {
			_, err = j.w.Write(line)
		}
		if err != nil {
			j.err = err
			break
		}
		j.n++
	}
	clear(b.events)
	b.events = b.events[:0]
	b.copies.reset()
}

// Flush hands the partial batch to the encoder goroutine, waits for the
// goroutine to write it and exit, and returns Err. The writer stays
// usable: the next full batch starts a new goroutine. Flush neither
// flushes nor closes the underlying writer.
func (j *JSONLWriter) Flush() error {
	if b := j.cur; b != nil {
		j.cur = nil
		j.handOff(b)
	}
	if j.full != nil {
		close(j.full)
		<-j.done
		j.full, j.done = nil, nil
	}
	return j.err
}

// Count flushes and returns the number of events written.
func (j *JSONLWriter) Count() int {
	_ = j.Flush() // the error stays sticky for Err
	return j.n
}

// Err flushes and returns the first write or encoding error, if any.
func (j *JSONLWriter) Err() error { return j.Flush() }

// Buffer is an unbounded in-memory sink keeping copies of events in
// emission order. The sharded runtime attaches one per shard-local bus
// and drains them at every epoch barrier, merging the per-namespace
// sequences into the output stream in canonical order; the buffer
// therefore only ever holds one epoch's worth of events, and the next
// epoch reuses the memory of the last.
type Buffer struct {
	events []Event // emission order; each points into copies
	copies copies
}

// NewBuffer returns an empty buffer.
func NewBuffer() *Buffer { return &Buffer{} }

// Consume implements Sink. It keeps a copy of ev.
func (b *Buffer) Consume(ev Event) { b.events = append(b.events, b.copies.keep(ev)) }

// Events returns the kept events in emission order. The slice and the
// events are owned by the buffer and invalidated by Reset; emitting them
// on another bus lends them to its sinks, as any emission does.
func (b *Buffer) Events() []Event { return b.events }

// Reset drops the kept events, keeping the backing capacity: the next
// events are copied over them.
func (b *Buffer) Reset() {
	clear(b.events)
	b.events = b.events[:0]
	b.copies.reset()
}

// Ring is a bounded in-memory sink keeping copies of the most recent
// events. It is the cheap always-on option: a run can carry a few
// thousand events for post-mortem rendering (decision-audit tables,
// switch timelines) without unbounded growth on long horizons.
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

// Consume implements Sink. It keeps a copy of ev, which the ring owns
// and never overwrites: a newer event takes the slot, not the copy.
func (r *Ring) Consume(ev Event) {
	r.buf[r.next] = clone(ev)
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
