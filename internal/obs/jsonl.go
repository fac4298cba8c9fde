package obs

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// encoder appends events to a reused line buffer as one JSON object per
// line, byte for byte as encoding/json.Marshal writes the same structs
// (DESIGN.md §19): fields in declaration order under their tag names,
// omitempty honoured, strings HTML-escaped, floats in the ES6 number
// form. There is one append routine per event kind; a field added to an
// event struct must be added to its routine too, which
// TestJSONLMatchesEncodingJSON enforces by filling every field of every
// kind through reflection and comparing against encoding/json.
type encoder struct {
	buf []byte
	// bad is the key of the first non-finite float in the line being
	// encoded, "" while every float is finite; badV is its value.
	bad  string
	badV float64
	memo floatMemo
}

// encode returns ev's line, newline included. The slice aliases the
// encoder's buffer and is valid until the next call. An event outside
// the closed taxonomy, or one carrying a NaN or an infinity (which JSON
// cannot represent), is an error.
func (e *encoder) encode(ev Event) ([]byte, error) {
	b := e.buf[:0]
	switch ev := ev.(type) {
	case *QueryComplete:
		b = e.queryComplete(b, ev)
	case *ColdStart:
		b = e.coldStart(b, ev)
	case *DecisionEvent:
		b = e.decision(b, ev)
	case *SwitchSpan:
		b = e.switchSpan(b, ev)
	case *HeartbeatSample:
		b = e.heartbeat(b, ev)
	case *MeterSample:
		b = e.meterSample(b, ev)
	case *PhaseSpan:
		b = e.phaseSpan(b, ev)
	default:
		return nil, fmt.Errorf("obs: cannot encode %T: not an event of the closed taxonomy", ev)
	}
	b = append(b, '\n')
	e.buf = b
	if e.bad != "" {
		key := strings.Trim(e.bad, `,:"[`)
		err := fmt.Errorf("obs: cannot encode %s field %q: unsupported value %v", ev.EventKind(), key, e.badV)
		e.bad = ""
		return nil, err
	}
	return b, nil
}

func (e *encoder) queryComplete(b []byte, q *QueryComplete) []byte {
	b = appendString(append(b, `{"kind":`...), string(q.Kind))
	b = e.num(b, `,"at":`, q.At.Raw())
	b = appendString(append(b, `,"service":`...), q.Service)
	b = appendString(append(b, `,"backend":`...), q.Backend)
	b = e.num(b, `,"arrived":`, q.Arrived.Raw())
	b = e.num(b, `,"latency_s":`, q.Latency.Raw())
	b = e.num(b, `,"queue_s":`, q.Queue.Raw())
	b = e.num(b, `,"cold_start_s":`, q.ColdStart.Raw())
	b = e.num(b, `,"processing_s":`, q.Processing.Raw())
	b = e.num(b, `,"code_load_s":`, q.CodeLoad.Raw())
	b = e.num(b, `,"exec_s":`, q.Exec.Raw())
	b = e.num(b, `,"post_s":`, q.Post.Raw())
	b = appendID(b, `,"trace":`, uint64(q.Trace))
	b = appendID(b, `,"span":`, uint64(q.Span))
	b = appendID(b, `,"cause":`, uint64(q.Cause))
	return append(b, '}')
}

func (e *encoder) coldStart(b []byte, c *ColdStart) []byte {
	b = appendString(append(b, `{"kind":`...), string(c.Kind))
	b = e.num(b, `,"at":`, c.At.Raw())
	b = appendString(append(b, `,"service":`...), c.Service)
	b = e.num(b, `,"delay_s":`, c.Delay.Raw())
	b = appendBool(append(b, `,"prewarm":`...), c.Prewarm)
	return append(b, '}')
}

func (e *encoder) decision(b []byte, d *DecisionEvent) []byte {
	b = appendString(append(b, `{"kind":`...), string(d.Kind))
	b = e.num(b, `,"at":`, d.At.Raw())
	b = appendString(append(b, `,"service":`...), d.Service)
	b = appendString(append(b, `,"mode":`...), d.Mode)
	b = appendString(append(b, `,"target":`...), d.Target)
	b = e.num(b, `,"load_qps":`, d.LoadQPS.Raw())
	b = e.num(b, `,"admissible_qps":`, d.AdmissibleQPS.Raw())
	b = e.num(b, `,"mu":`, d.Mu.Raw())
	b = strconv.AppendInt(append(b, `,"n_max":`...), int64(d.NMax), 10)
	b = e.vec(b, `,"pressure":[`, &d.Pressure)
	b = e.vec(b, `,"post_pressure":[`, &d.PostPressure)
	b = e.vec(b, `,"weights":[`, &d.Weights)
	b = e.num(b, `,"intercept":`, d.Intercept)
	b = appendBool(append(b, `,"weights_learned":`...), d.WeightsLearned)
	b = appendBool(append(b, `,"blocked":`...), d.Blocked)
	b = appendString(append(b, `,"verdict":`...), d.Verdict)
	b = appendString(append(b, `,"reason":`...), d.Reason)
	b = appendID(b, `,"trace":`, uint64(d.Trace))
	b = appendID(b, `,"span":`, uint64(d.Span))
	b = appendID(b, `,"meter_span":`, uint64(d.MeterSpan))
	return append(b, '}')
}

func (e *encoder) switchSpan(b []byte, s *SwitchSpan) []byte {
	b = appendString(append(b, `{"kind":`...), string(s.Kind))
	b = e.num(b, `,"at":`, s.At.Raw())
	b = appendString(append(b, `,"service":`...), s.Service)
	b = appendString(append(b, `,"from":`...), s.From)
	b = appendString(append(b, `,"to":`...), s.To)
	b = e.num(b, `,"start":`, s.Start.Raw())
	b = e.num(b, `,"flip_at":`, s.FlipAt.Raw())
	b = e.num(b, `,"end":`, s.End.Raw())
	b = e.num(b, `,"prewarm_s":`, s.PrewarmS.Raw())
	b = e.num(b, `,"ack_s":`, s.AckS.Raw())
	b = e.num(b, `,"flip_s":`, s.FlipS.Raw())
	b = e.num(b, `,"drain_s":`, s.DrainS.Raw())
	b = e.num(b, `,"release_s":`, s.ReleaseS.Raw())
	b = e.num(b, `,"load_qps":`, s.LoadQPS.Raw())
	b = strconv.AppendInt(append(b, `,"prewarmed":`...), int64(s.Prewarmed), 10)
	b = appendBool(append(b, `,"aborted":`...), s.Aborted)
	b = appendID(b, `,"trace":`, uint64(s.Trace))
	b = appendID(b, `,"span":`, uint64(s.Span))
	b = appendID(b, `,"decision_span":`, uint64(s.Decision))
	return append(b, '}')
}

func (e *encoder) heartbeat(b []byte, h *HeartbeatSample) []byte {
	b = appendString(append(b, `{"kind":`...), string(h.Kind))
	b = e.num(b, `,"at":`, h.At.Raw())
	b = appendString(append(b, `,"service":`...), h.Service)
	b = e.vec(b, `,"features":[`, &h.Features)
	b = e.num(b, `,"observed":`, h.Observed)
	b = strconv.AppendInt(append(b, `,"window":`...), int64(h.Window), 10)
	b = e.vec(b, `,"weights":[`, &h.Weights)
	b = e.num(b, `,"intercept":`, h.Intercept)
	b = appendBool(append(b, `,"learned":`...), h.Learned)
	b = appendID(b, `,"trace":`, uint64(h.Trace))
	b = appendID(b, `,"span":`, uint64(h.Span))
	b = appendID(b, `,"meter_span":`, uint64(h.MeterSpan))
	return append(b, '}')
}

func (e *encoder) meterSample(b []byte, m *MeterSample) []byte {
	b = appendString(append(b, `{"kind":`...), string(m.Kind))
	b = e.num(b, `,"at":`, m.At.Raw())
	lat := [3]float64{m.Latency[0].Raw(), m.Latency[1].Raw(), m.Latency[2].Raw()}
	b = e.vec(b, `,"latency_s":[`, &lat)
	b = e.vec(b, `,"pressure":[`, &m.Pressure)
	b = appendID(b, `,"trace":`, uint64(m.Trace))
	b = appendID(b, `,"span":`, uint64(m.Span))
	return append(b, '}')
}

func (e *encoder) phaseSpan(b []byte, p *PhaseSpan) []byte {
	b = appendString(append(b, `{"kind":`...), string(p.Kind))
	b = e.num(b, `,"at":`, p.At.Raw())
	b = strconv.AppendUint(append(b, `,"trace":`...), uint64(p.Trace), 10)
	b = strconv.AppendUint(append(b, `,"span":`...), uint64(p.Span), 10)
	b = appendID(b, `,"parent":`, uint64(p.Parent))
	b = appendID(b, `,"cause":`, uint64(p.Cause))
	b = appendString(append(b, `,"phase":`...), string(p.Phase))
	b = appendString(append(b, `,"service":`...), p.Service)
	if p.Backend != "" {
		b = appendString(append(b, `,"backend":`...), p.Backend)
	}
	b = e.num(b, `,"start":`, p.Start.Raw())
	b = e.num(b, `,"end":`, p.End.Raw())
	return append(b, '}')
}

// appendID appends an omitempty span or trace ID field: nothing for 0.
func appendID(b []byte, key string, id uint64) []byte {
	if id == 0 {
		return b
	}
	return strconv.AppendUint(append(b, key...), id, 10)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, "true"...)
	}
	return append(b, "false"...)
}

// vec appends key, which opens the array, and the three elements of v.
func (e *encoder) vec(b []byte, key string, v *[3]float64) []byte {
	b = e.float(append(b, key...), key, v[0])
	b = e.float(append(b, ','), key, v[1])
	b = e.float(append(b, ','), key, v[2])
	return append(b, ']')
}

// num appends key and then x.
func (e *encoder) num(b []byte, key string, x float64) []byte {
	return e.float(append(b, key...), key, x)
}

// float appends x as encoding/json writes a float64, through the memo.
// A NaN or an infinity appends nothing and is recorded in e.bad under
// the key of its field, which fails the line.
func (e *encoder) float(b []byte, key string, x float64) []byte {
	bits := math.Float64bits(x)
	m := e.memo.slot(bits)
	if m.n != 0 && m.bits == bits {
		return append(b, m.text[:m.n]...)
	}
	if math.IsNaN(x) || math.IsInf(x, 0) {
		if e.bad == "" {
			e.bad, e.badV = key, x
		}
		return b
	}
	start := len(b)
	b = appendFloat(b, x)
	if n := len(b) - start; n <= len(m.text) {
		m.bits, m.n = bits, uint8(n)
		copy(m.text[:], b[start:])
	}
	return b
}

// floatMemo is a direct-mapped cache from a float64's bit pattern to its
// formatted digits. It is exact because the digits are a pure function
// of the bits: a hit returns what appendFloat would append, and a
// collision only evicts. Non-finite values are never stored. Streams
// repeat floats at short distances (a phase span's end equals its
// emission instant, a query completes at its exec span's end, and the
// per-profile latency constants recur on every query), so a small table
// catches most repeats.
type floatMemo [1 << memoBits]memoEntry

const memoBits = 8

// memoEntry holds one value's digits; n == 0 marks an empty slot (every
// formatted float has at least one digit). Values longer than text are
// not memoized.
type memoEntry struct {
	bits uint64
	n    uint8
	text [23]byte
}

// slot returns the entry bits maps to (Fibonacci hashing: the top bits
// of the product mix every input bit).
func (m *floatMemo) slot(bits uint64) *memoEntry {
	return &m[(bits*0x9E3779B97F4A7C15)>>(64-memoBits)]
}

// htmlSafe marks the ASCII bytes encoding/json writes unescaped with
// HTML escaping on: printable characters other than '"', '\\', '<', '>'
// and '&'.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = !strings.ContainsRune("\"\\<>&", c)
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendString appends s as a quoted JSON string with encoding/json's
// escaping: '"' and '\\' backslash-escaped; \b, \f, \n, \r and \t by
// name; other control bytes and '<', '>' and '&' as \u00XX; invalid
// UTF-8 as \ufffd; and U+2028 and U+2029 as \u2028 and \u2029.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
