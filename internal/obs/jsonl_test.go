package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"amoeba/internal/units"
)

// The oracle corpus: values on every branch of encoding/json's float
// and string rules, plus the zero and non-zero sides of each omitempty
// field.
var (
	floatCorpus = []float64{
		0,
		math.Copysign(0, -1),
		math.SmallestNonzeroFloat64,
		-math.SmallestNonzeroFloat64,
		2.2250738585072014e-308, // smallest normal
		1e-6,
		math.Nextafter(1e-6, 0),
		math.Nextafter(1e-6, 1),
		-1e-6,
		1e21,
		math.Nextafter(1e21, 0),
		math.Nextafter(1e21, math.Inf(1)),
		-1e21,
		math.MaxFloat64,
		-math.MaxFloat64,
		1.5e-7, // 'e' form whose exponent has a leading zero
		-2.5e-9,
		1e-100,
		1.2345678901234567e-6, // 'f' form longer than a memo slot
		-1.2345678901234567e-300,
		0.1,
		1.0 / 3,
		3600,
		12.5,
		-0.25,
		1.2345678901234568e20,
		0.004,
	}
	stringCorpus = []string{
		"",
		"dd",
		"serverless",
		`<>&"\`,
		"load 15.79 <= 21.21 (80% of admissible 26.51)",
		"\b\f\n\r\t",
		"\x00\x01\x1f\x7f",
		"bad \xff byte",
		"cut \xe2\x80",
		"\xed\xa0\x80",                     // a UTF-16 surrogate half, invalid in UTF-8
		"line\xe2\x80\xa8para\xe2\x80\xa9", // U+2028, U+2029
		"λ = μ·n",
		"emoji \xf0\x9f\x98\x80",
	}
	uintCorpus = []uint64{0, 1, 42, math.MaxUint64}
	intCorpus  = []int64{0, -1, 7, math.MinInt, math.MaxInt}
	boolCorpus = []bool{false, true}
)

// newEvents returns one zero event of each kind of the taxonomy.
func newEvents() []Event {
	return []Event{
		&QueryComplete{},
		&ColdStart{},
		&DecisionEvent{},
		&SwitchSpan{},
		&HeartbeatSample{},
		&MeterSample{},
		&PhaseSpan{},
	}
}

// source supplies field values by type; each function receives the
// ordinal of the field among the event's leaves of that type.
type source struct {
	float func(int) float64
	str   func(int) string
	uint  func(int) uint64
	int   func(int) int64
	bool  func(int) bool
}

// cycle draws vals[(off+i) % len(vals)] for the i-th field.
func cycle[T any](vals []T, off int) func(int) T {
	return func(i int) T { return vals[(off+i)%len(vals)] }
}

// corpusSource rotates every corpus by off, so that over
// len(floatCorpus) offsets each field takes each corpus value.
func corpusSource(off int) source {
	return source{
		float: cycle(floatCorpus, off),
		str:   cycle(stringCorpus, off),
		uint:  cycle(uintCorpus, off),
		int:   cycle(intCorpus, off),
		bool:  cycle(boolCorpus, off),
	}
}

// fillEvent sets every field of ev by reflection, recursing into arrays,
// so a field added to an event struct gets a value that json.Marshal
// writes whether or not the encoder knows the field. It returns the
// JSON name of each float leaf, in order.
func fillEvent(tb testing.TB, ev Event, src source) (floatKeys []string) {
	tb.Helper()
	n := map[reflect.Kind]int{}
	var fill func(v reflect.Value, key string)
	fill = func(v reflect.Value, key string) {
		k := v.Kind()
		switch k {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				name, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
				fill(v.Field(i), name)
			}
			return
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				fill(v.Index(i), key)
			}
			return
		case reflect.Float64:
			v.SetFloat(src.float(n[k]))
			floatKeys = append(floatKeys, key)
		case reflect.String:
			v.SetString(src.str(n[k]))
		case reflect.Uint64:
			v.SetUint(src.uint(n[k]))
		case reflect.Int:
			v.SetInt(src.int(n[k]))
		case reflect.Bool:
			v.SetBool(src.bool(n[k]))
		default:
			tb.Fatalf("%T has a %s field: add it to the oracle's corpus and the encoder", ev, v.Type())
		}
		n[k]++
	}
	fill(reflect.ValueOf(ev).Elem(), "")
	return floatKeys
}

// TestJSONLMatchesEncodingJSON is the byte-identity oracle: every line
// the writer produces equals json.Marshal of the same event plus a
// newline, for every kind with every field drawn from the corpus. One
// writer encodes every line, so the float memo sees hits, misses and
// evictions along the way.
func TestJSONLMatchesEncodingJSON(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	lines := 0
	for off := range floatCorpus {
		for _, ev := range newEvents() {
			fillEvent(t, ev, corpusSource(off))
			want, err := json.Marshal(ev)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, '\n')
			buf.Reset()
			w.Consume(ev)
			w.Flush()
			lines++
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("%T at offset %d:\n got %s\nwant %s", ev, off, buf.Bytes(), want)
			}
		}
	}
	if w.Err() != nil || w.Count() != lines {
		t.Fatalf("Err = %v, Count = %d, want nil and %d", w.Err(), w.Count(), lines)
	}
}

// FuzzJSONLEncode checks the same identity on fuzzed values: floats
// alternate between x and y, every string field is s, and so on. Each
// event is written twice, the second time through the float memo. An
// event json.Marshal rejects must leave the writer failed and silent.
func FuzzJSONLEncode(f *testing.F) {
	for i, x := range floatCorpus {
		f.Add(stringCorpus[i%len(stringCorpus)], x, floatCorpus[(i+1)%len(floatCorpus)],
			uintCorpus[i%len(uintCorpus)], intCorpus[i%len(intCorpus)], i%2 == 1)
	}
	f.Add("reason <= margin", math.NaN(), 1.0, uint64(0), int64(0), false)
	f.Fuzz(func(t *testing.T, s string, x, y float64, u uint64, n int64, flag bool) {
		src := source{
			float: cycle([]float64{x, y}, 0),
			str:   cycle([]string{s}, 0),
			uint:  cycle([]uint64{u}, 0),
			int:   cycle([]int64{n}, 0),
			bool:  cycle([]bool{flag}, 0),
		}
		for _, ev := range newEvents() {
			fillEvent(t, ev, src)
			want, merr := json.Marshal(ev)
			var buf bytes.Buffer
			w := NewJSONLWriter(&buf)
			for pass := 0; pass < 2; pass++ {
				w.Consume(ev)
				if merr != nil {
					if w.Err() == nil || buf.Len() != 0 || w.Count() != 0 {
						t.Fatalf("%T: json.Marshal fails (%v) but the writer has Err = %v, %d bytes, Count %d",
							ev, merr, w.Err(), buf.Len(), w.Count())
					}
					continue
				}
				w.Flush()
				if got := buf.String(); got != string(want)+"\n" {
					t.Fatalf("%T pass %d:\n got %s\nwant %s", ev, pass, got, want)
				}
				buf.Reset()
			}
		}
	})
}

// TestJSONLWriterRejectsNonFinite pins what json.Marshal's
// UnsupportedValueError gave: a NaN or an infinity in any float field
// fails the writer with an error naming the field, and the writer then
// writes nothing for that event or any later one and stops counting.
func TestJSONLWriterRejectsNonFinite(t *testing.T) {
	finite := corpusSource(0)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for k := range newEvents() {
			keys := fillEvent(t, newEvents()[k], finite)
			for j := range keys {
				src := finite
				src.float = func(i int) float64 {
					if i == j {
						return bad
					}
					return finite.float(i)
				}
				ev, ok := newEvents()[k], newEvents()[k]
				fillEvent(t, ev, src)
				fillEvent(t, ok, finite)
				if _, err := json.Marshal(ev); err == nil {
					t.Fatalf("oracle accepted %v in float field %d of %T", bad, j, ev)
				}
				var buf bytes.Buffer
				w := NewJSONLWriter(&buf)
				w.Consume(ok)
				w.Flush()
				written := buf.Len()
				w.Consume(ev)
				if err := w.Err(); err == nil || !strings.Contains(err.Error(), strconv.Quote(keys[j])) {
					t.Fatalf("%v in float field %d of %T: Err = %v, want an error naming %q", bad, j, ev, err, keys[j])
				}
				w.Consume(ok)
				w.Flush()
				if buf.Len() != written || w.Count() != 1 {
					t.Fatalf("%v in float field %d of %T: %d bytes and Count %d after the error, want %d and 1",
						bad, j, ev, buf.Len(), w.Count(), written)
				}
			}
		}
	}
}

// foreignEvent implements Event but is not one of the taxonomy's kinds.
type foreignEvent struct{}

func (foreignEvent) EventKind() Kind          { return "foreign" }
func (foreignEvent) EventTime() units.Seconds { return 0 }

// TestJSONLWriterRejectsForeignEvent: the writer is exported, so a
// caller can hand Consume any Event; one outside the closed taxonomy
// (or nil) sets the sticky error instead of panicking.
func TestJSONLWriterRejectsForeignEvent(t *testing.T) {
	for _, ev := range []Event{foreignEvent{}, nil} {
		var buf bytes.Buffer
		w := NewJSONLWriter(&buf)
		w.Consume(ev)
		w.Consume(&ColdStart{Kind: KindColdStart, At: 1})
		if w.Err() == nil || buf.Len() != 0 || w.Count() != 0 {
			t.Fatalf("%T: Err = %v, %d bytes, Count %d; want an error and nothing written",
				ev, w.Err(), buf.Len(), w.Count())
		}
	}
}

// TestJSONLGoldenLines fixes the wire format independently of
// encoding/json: one literal line per kind, covering an HTML-escaped
// reason, omitted zero IDs, a PhaseSpan without a backend, and both
// exponent forms.
func TestJSONLGoldenLines(t *testing.T) {
	events := []Event{
		&QueryComplete{At: 12.5, Service: "dd", Backend: "serverless", Arrived: 12.25,
			Latency: 0.25, Queue: 0.0625, Processing: 0.004, CodeLoad: 0.0125, Exec: 0.1335,
			Post: 0.03, Trace: 3, Span: 7},
		&ColdStart{At: 30, Service: "dd", Delay: 1.5e-7, Prewarm: true},
		&DecisionEvent{At: 60, Service: "dd", Mode: "iaas", Target: "serverless",
			LoadQPS: 12.5, AdmissibleQPS: 40, Mu: 3.2, NMax: 8,
			Pressure: [3]float64{0.1, 0.2, 0.3}, PostPressure: [3]float64{0.15, 0.25, 0.35},
			Weights: [3]float64{1, -0.5, 2e21}, Intercept: 0.05, WeightsLearned: true,
			Verdict: "switch-in", Reason: "load 12.5 <= 32 & pressure within 0.90",
			Trace: 1, Span: 2},
		&SwitchSpan{At: 200, Service: "dd", From: "iaas", To: "serverless",
			Start: 180, FlipAt: 185, End: 200, PrewarmS: 5, DrainS: 15,
			LoadQPS: 12.5, Prewarmed: 4, Decision: 2},
		&HeartbeatSample{At: 61, Service: "dd", Features: [3]float64{1.25, 1, 1.0000001},
			Observed: 1.3, Window: 12, Weights: [3]float64{0.5, 0.25, 0.25}, Intercept: -0.1,
			Learned: true, Trace: 4, Span: 9, MeterSpan: 8},
		&MeterSample{At: 59.5, Latency: [3]units.Seconds{0.001, 0.0025, 1e-7},
			Pressure: [3]float64{0, 0.5, 1}},
		&PhaseSpan{At: 12.5, Trace: 3, Span: 8, Parent: 7, Phase: PhaseExec,
			Service: "dd", Start: 12.375, End: 12.5},
	}
	want := `{"kind":"query_complete","at":12.5,"service":"dd","backend":"serverless","arrived":12.25,"latency_s":0.25,"queue_s":0.0625,"cold_start_s":0,"processing_s":0.004,"code_load_s":0.0125,"exec_s":0.1335,"post_s":0.03,"trace":3,"span":7}
{"kind":"cold_start","at":30,"service":"dd","delay_s":1.5e-7,"prewarm":true}
{"kind":"decision","at":60,"service":"dd","mode":"iaas","target":"serverless","load_qps":12.5,"admissible_qps":40,"mu":3.2,"n_max":8,"pressure":[0.1,0.2,0.3],"post_pressure":[0.15,0.25,0.35],"weights":[1,-0.5,2e+21],"intercept":0.05,"weights_learned":true,"blocked":false,"verdict":"switch-in","reason":"load 12.5 \u003c= 32 \u0026 pressure within 0.90","trace":1,"span":2}
{"kind":"switch_span","at":200,"service":"dd","from":"iaas","to":"serverless","start":180,"flip_at":185,"end":200,"prewarm_s":5,"ack_s":0,"flip_s":0,"drain_s":15,"release_s":0,"load_qps":12.5,"prewarmed":4,"aborted":false,"decision_span":2}
{"kind":"heartbeat","at":61,"service":"dd","features":[1.25,1,1.0000001],"observed":1.3,"window":12,"weights":[0.5,0.25,0.25],"intercept":-0.1,"learned":true,"trace":4,"span":9,"meter_span":8}
{"kind":"meter_sample","at":59.5,"latency_s":[0.001,0.0025,1e-7],"pressure":[0,0.5,1]}
{"kind":"phase_span","at":12.5,"trace":3,"span":8,"parent":7,"phase":"exec","service":"dd","start":12.375,"end":12.5}
`
	var buf bytes.Buffer
	bus := NewBus()
	bus.Attach(NewJSONLWriter(&buf))
	for _, ev := range events {
		bus.Emit(ev)
	}
	bus.Flush()
	got, wantLines := strings.Split(buf.String(), "\n"), strings.Split(want, "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("%d lines, want %d:\n%s", len(got), len(wantLines), buf.String())
	}
	for i, line := range wantLines {
		if got[i] != line {
			t.Fatalf("line %d:\n got %s\nwant %s", i, got[i], line)
		}
	}
}

// TestZeroAllocJSONLConsume pins the steady state of the stream: once
// the line buffer has grown to the longest line, writing any kind
// allocates nothing.
//
//amoeba:alloctest obs.JSONLWriter.Consume
func TestZeroAllocJSONLConsume(t *testing.T) {
	w := NewJSONLWriter(io.Discard)
	events := newEvents()
	for i, ev := range events {
		fillEvent(t, ev, corpusSource(i))
		w.Consume(ev)
	}
	avg := testing.AllocsPerRun(1000, func() {
		for _, ev := range events {
			w.Consume(ev)
		}
	})
	if avg != 0 {
		t.Fatalf("JSONL Consume allocates %.2f per %d-event batch in steady state, want 0", avg, len(events))
	}
	if w.Err() != nil {
		t.Fatal(w.Err())
	}
}

// validUTF8 is the part of stringCorpus that survives a JSON round trip
// unchanged (invalid UTF-8 decodes to U+FFFD).
func validUTF8() []string {
	var out []string
	for _, s := range stringCorpus {
		if utf8.ValidString(s) {
			out = append(out, s)
		}
	}
	return out
}
