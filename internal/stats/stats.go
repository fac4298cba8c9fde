// Package stats provides the statistical primitives the evaluation needs:
// exact quantiles and CDFs for latency distributions (Fig. 10) and EWMA
// load estimation for the controller.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sample collects observations and answers quantile/CDF queries exactly.
// Observations are kept unsorted until a query arrives; queries sort
// lazily and cache until the next out-of-order Add: an append that keeps
// the data sorted (monotone streams, or adds after a query) preserves the
// cache, so alternating Add/Quantile on ordered data never re-sorts.
type Sample struct {
	data   []float64
	sorted bool
}

// NewSample returns an empty sample, optionally pre-sized.
func NewSample(capacity int) *Sample {
	return &Sample{data: make([]float64, 0, capacity), sorted: true}
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	if s.sorted && len(s.data) > 0 && v < s.data[len(s.data)-1] {
		s.sorted = false
	}
	s.data = append(s.data, v)
}

// AddAll records a batch of observations. Empty batches are a no-op (and
// keep the sort cache); singletons take the Add path.
func (s *Sample) AddAll(vs []float64) {
	switch len(vs) {
	case 0:
		return
	case 1:
		s.Add(vs[0])
		return
	}
	s.data = append(s.data, vs...)
	s.sorted = false
}

// Len returns the number of observations.
func (s *Sample) Len() int { return len(s.data) }

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.data)
		s.sorted = true
	}
}

// Quantile returns the q-quantile (0 <= q <= 1) using linear interpolation
// between closest ranks. It panics on an empty sample or q outside [0,1].
func (s *Sample) Quantile(q float64) float64 {
	if len(s.data) == 0 {
		panic("stats: Quantile of empty sample")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v out of [0,1]", q))
	}
	s.ensureSorted()
	if len(s.data) == 1 {
		return s.data[0]
	}
	pos := q * float64(len(s.data)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.data[lo]
	}
	frac := pos - float64(lo)
	return s.data[lo]*(1-frac) + s.data[hi]*frac
}

// P95 is shorthand for the 95th percentile, the paper's QoS metric.
func (s *Sample) P95() float64 { return s.Quantile(0.95) }

// P99 is shorthand for the 99th percentile.
func (s *Sample) P99() float64 { return s.Quantile(0.99) }

// Mean returns the arithmetic mean. It panics on an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.data) == 0 {
		panic("stats: Mean of empty sample")
	}
	sum := 0.0
	for _, v := range s.data {
		sum += v
	}
	return sum / float64(len(s.data))
}

// Min returns the smallest observation. It panics on an empty sample.
func (s *Sample) Min() float64 {
	if len(s.data) == 0 {
		panic("stats: Min of empty sample")
	}
	s.ensureSorted()
	return s.data[0]
}

// Max returns the largest observation. It panics on an empty sample.
func (s *Sample) Max() float64 {
	if len(s.data) == 0 {
		panic("stats: Max of empty sample")
	}
	s.ensureSorted()
	return s.data[len(s.data)-1]
}

// FractionBelow returns the empirical CDF at x: the fraction of
// observations <= x.
func (s *Sample) FractionBelow(x float64) float64 {
	if len(s.data) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.fractionBelow(x, 1)
}

// fractionBelow returns the fraction of observations v with v/div <= x.
// The data must be sorted and div positive: v/div is then non-decreasing
// along the data, so the first v with v/div >= Nextafter(x) is found by
// binary search, exactly as in a sorted sample of the quotients.
func (s *Sample) fractionBelow(x, div float64) float64 {
	y := math.Nextafter(x, math.Inf(1))
	idx := sort.Search(len(s.data), func(i int) bool { return s.data[i]/div >= y })
	return float64(idx) / float64(len(s.data))
}

// CDF returns (x, F(x)) pairs evaluated at n evenly spaced points between
// min and max, suitable for plotting Fig. 10-style curves.
func (s *Sample) CDF(n int) (xs, fs []float64) { return s.ScaledCDF(n, 1) }

// ScaledCDF returns the CDF of the observations divided by div: bit for
// bit what CDF returns on a sample holding v/div for every observation
// v, without keeping that second sample. It panics if div is not
// positive.
func (s *Sample) ScaledCDF(n int, div float64) (xs, fs []float64) {
	if !(div > 0) {
		panic(fmt.Sprintf("stats: CDF divisor %v is not positive", div))
	}
	if len(s.data) == 0 || n < 2 {
		return nil, nil
	}
	s.ensureSorted()
	lo, hi := s.data[0]/div, s.data[len(s.data)-1]/div
	xs = make([]float64, n)
	fs = make([]float64, n)
	for i := 0; i < n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(n-1)
		xs[i] = x
		fs[i] = s.fractionBelow(x, div)
	}
	return xs, fs
}

// Values returns a sorted copy of the observations.
func (s *Sample) Values() []float64 {
	s.ensureSorted()
	out := make([]float64, len(s.data))
	copy(out, s.data)
	return out
}

// EWMA is an exponentially weighted moving average; the controller uses it
// to estimate the instantaneous query arrival rate λ.
type EWMA struct {
	alpha float64
	value float64
	init  bool
}

// NewEWMA returns an EWMA with smoothing factor alpha in (0, 1]. Larger
// alpha tracks changes faster. It panics if alpha is out of range.
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("stats: EWMA alpha %v out of (0,1]", alpha))
	}
	return &EWMA{alpha: alpha}
}

// Update folds one observation into the average and returns the new value.
func (e *EWMA) Update(v float64) float64 {
	if !e.init {
		e.value, e.init = v, true
	} else {
		e.value = e.alpha*v + (1-e.alpha)*e.value
	}
	return e.value
}

// Value returns the current average (0 before the first update).
func (e *EWMA) Value() float64 { return e.value }

// Initialized reports whether at least one observation was folded in.
func (e *EWMA) Initialized() bool { return e.init }
