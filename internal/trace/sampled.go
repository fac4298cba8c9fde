package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sampled is a trace defined by (time, QPS) samples with linear
// interpolation between them — the natural representation of a replayed
// production trace such as the Didi ride-request series the paper shapes
// its loads after. Outside the sampled range the rate clamps to the
// nearest endpoint.
type Sampled struct {
	times []float64
	rates []float64
	peak  float64
}

// NewSampled builds a sampled trace. Times must be finite and strictly
// increasing, with every gap between adjacent times finite too, so that
// Rate's interpolation span never overflows. Rates must be finite and
// non-negative; at least two samples are required.
func NewSampled(times, rates []float64) (*Sampled, error) {
	if len(times) != len(rates) {
		return nil, fmt.Errorf("trace: %d times vs %d rates", len(times), len(rates))
	}
	if len(times) < 2 {
		return nil, fmt.Errorf("trace: need at least 2 samples, got %d", len(times))
	}
	peak := 0.0
	for i := range times {
		if math.IsNaN(times[i]) || math.IsInf(times[i], 0) {
			return nil, fmt.Errorf("trace: non-finite time %v at sample %d", times[i], i)
		}
		if i > 0 && times[i] <= times[i-1] {
			return nil, fmt.Errorf("trace: times not strictly increasing at sample %d", i)
		}
		if i > 0 && math.IsInf(times[i]-times[i-1], 0) {
			return nil, fmt.Errorf("trace: gap before sample %d overflows float64", i)
		}
		if !(rates[i] >= 0) || math.IsInf(rates[i], 1) {
			return nil, fmt.Errorf("trace: rate %v at sample %d is not finite and non-negative", rates[i], i)
		}
		if rates[i] > peak {
			peak = rates[i]
		}
	}
	return &Sampled{
		times: append([]float64(nil), times...),
		rates: append([]float64(nil), rates...),
		peak:  peak,
	}, nil
}

// Rate linearly interpolates the sampled series at t.
func (s *Sampled) Rate(t float64) float64 {
	n := len(s.times)
	if t <= s.times[0] {
		return s.rates[0]
	}
	if t >= s.times[n-1] {
		return s.rates[n-1]
	}
	i := sort.SearchFloat64s(s.times, t)
	// times[i-1] < t <= times[i]
	f := (t - s.times[i-1]) / (s.times[i] - s.times[i-1])
	return s.rates[i-1] + f*(s.rates[i]-s.rates[i-1])
}

// Peak returns the largest sampled rate (linear interpolation cannot
// exceed it).
func (s *Sampled) Peak() float64 { return s.peak }

// LoadCSV reads a two-column "time_seconds,qps" series (comments starting
// with '#' and a non-numeric header line are skipped) into a Sampled
// trace. This is the entry point for replaying production traces.
func LoadCSV(r io.Reader) (*Sampled, error) {
	var times, rates []float64
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != 2 {
			return nil, fmt.Errorf("trace: line %d: want 2 columns, got %d", line, len(parts))
		}
		t, err1 := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		q, err2 := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err1 != nil || err2 != nil {
			if len(times) == 0 {
				continue // tolerate one header line
			}
			return nil, fmt.Errorf("trace: line %d: not numeric: %q", line, text)
		}
		times = append(times, t)
		rates = append(rates, q)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return NewSampled(times, rates)
}

// Resample evaluates any trace at n evenly spaced points over [from, to],
// producing a Sampled approximation — useful to freeze a stochastic trace
// for export or replay. It panics on an empty window or fewer than two
// points.
func Resample(tr Trace, from, to float64, n int) *Sampled {
	if n < 2 || to <= from {
		panic(fmt.Sprintf("trace: invalid resample window [%v, %v] x%d", from, to, n))
	}
	times := make([]float64, n)
	rates := make([]float64, n)
	for i := 0; i < n; i++ {
		t := from + (to-from)*float64(i)/float64(n-1)
		times[i] = t
		rates[i] = tr.Rate(t)
	}
	s, err := NewSampled(times, rates)
	if err != nil {
		panic(err)
	}
	return s
}
