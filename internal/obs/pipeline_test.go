package obs

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"amoeba/internal/units"
)

// oneAtATime is the writer's contract without the pipeline: each event
// encoded and written in turn on the caller's goroutine, stopping at the
// first error.
type oneAtATime struct {
	w   io.Writer
	enc encoder
	n   int
	err error
}

func (o *oneAtATime) consume(ev Event) {
	if o.err != nil {
		return
	}
	line, err := o.enc.encode(ev)
	if err == nil {
		_, err = o.w.Write(line)
	}
	if err != nil {
		o.err = err
		return
	}
	o.n++
}

// slowWriter is slower than the producer: it sleeps at every 64th
// line. lines counts the lines it has taken.
type slowWriter struct {
	bytes.Buffer
	lines atomic.Int64
}

func (s *slowWriter) Write(p []byte) (int, error) {
	if s.lines.Add(1)%64 == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	return s.Buffer.Write(p)
}

// failAfter writes n lines, then fails every write.
type failAfter struct {
	bytes.Buffer
	n int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n == 0 {
		return 0, errWrite
	}
	f.n--
	return f.Buffer.Write(p)
}

// TestJSONLWriterPipeline drives a dozen batches of every kind through
// a bus and checks the bytes, Count and Err against encoding the same
// events one at a time. The emitter reuses one struct per kind, as the
// per-query emitters do, so a writer that kept a pointer instead of a
// copy would write later values. One writer is slower than the
// producer, so Consume waits for free batches; the other fails partway
// through the fourth batch.
func TestJSONLWriterPipeline(t *testing.T) {
	const total = 12*batchLen + 37
	const failAt = 3*batchLen + 100
	slow := &slowWriter{}
	var slowRef bytes.Buffer
	fail, failRef := &failAfter{n: failAt}, &failAfter{n: failAt}
	for _, tc := range []struct {
		name      string
		w, ref    io.Writer
		got, want *bytes.Buffer
		lines     int // lines the writer takes
	}{
		{"slow", slow, &slowRef, &slow.Buffer, &slowRef, total},
		{"fails mid-batch", fail, failRef, &fail.Buffer, &failRef.Buffer, failAt},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := NewJSONLWriter(tc.w)
			ref := &oneAtATime{w: tc.ref}
			bus := NewBus()
			bus.Attach(w)
			reused := newEvents()
			for i := 0; i < total; i++ {
				ev := reused[i%len(reused)]
				fillEvent(t, ev, corpusSource(i))
				bus.Emit(ev)
				ref.consume(ev)
			}
			if tc.w == slow {
				// Memory is bounded: the producer is never more than the
				// batches in flight ahead of the writer.
				if ahead := total - int(slow.lines.Load()); ahead > batchCount*batchLen {
					t.Fatalf("producer finished %d events ahead of the writer, more than %d batches of %d",
						ahead, batchCount, batchLen)
				}
			}
			if err := bus.Flush(); !errors.Is(err, ref.err) {
				t.Fatalf("Flush = %v, want %v", err, ref.err)
			}
			if w.Count() != ref.n || !errors.Is(w.Err(), ref.err) {
				t.Fatalf("Count %d, Err %v; one at a time: %d, %v", w.Count(), w.Err(), ref.n, ref.err)
			}
			if !bytes.Equal(tc.got.Bytes(), tc.want.Bytes()) {
				t.Fatalf("pipeline wrote %d bytes, one at a time %d; they differ", tc.got.Len(), tc.want.Len())
			}
			if ref.n != tc.lines {
				t.Fatalf("one at a time wrote %d lines, want %d", ref.n, tc.lines)
			}
		})
	}
}

// encoderGoroutines counts the live goroutines JSONLWriters started.
func encoderGoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "created by amoeba/internal/obs.(*JSONLWriter).")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// waitEncoders waits until n encoder goroutines are left. Flush has
// already seen the goroutine close its done channel, so the wait covers
// only the goroutine's return.
func waitEncoders(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); encoderGoroutines() != n; {
		if time.Now().After(deadline) {
			t.Fatalf("%d encoder goroutines, want %d", encoderGoroutines(), n)
		}
		runtime.Gosched()
	}
}

// TestJSONLWriterFlushStopsEncoder checks the encoder goroutine's
// lifetime: a full batch starts it, Flush stops it, and the next full
// batch starts another.
func TestJSONLWriterFlushStopsEncoder(t *testing.T) {
	before := encoderGoroutines()
	w := NewJSONLWriter(io.Discard)
	bus := NewBus()
	bus.Attach(w)
	for round := 1; round <= 2; round++ {
		for i := 0; i < batchLen+1; i++ {
			bus.Emit(&ColdStart{At: units.Seconds(i)})
		}
		if n := encoderGoroutines(); n != before+1 {
			t.Fatalf("round %d: %d encoder goroutines with a batch handed over, want %d", round, n, before+1)
		}
		if err := bus.Flush(); err != nil {
			t.Fatal(err)
		}
		waitEncoders(t, before)
		if w.Count() != round*(batchLen+1) {
			t.Fatalf("round %d: Count = %d, want %d", round, w.Count(), round*(batchLen+1))
		}
	}
}
