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
//
// Until the first query, observations are written into fixed blocks, so
// a growing sample never copies what it holds; the first query joins
// the blocks once into one exactly sized slice, and from then on Add
// appends to that slice. Queries sort lazily and cache until the next
// out-of-order Add: an Add that keeps the data sorted (monotone streams,
// or adds after a query at or above the sorted tail) preserves the
// cache, so alternating Add/Quantile on ordered data never re-sorts.
type Sample struct {
	// data is the block being filled until the first query, and every
	// observation from then on.
	data   []float64
	full   [][]float64 // blocks filled before the first query, oldest first
	held   int         // observations in full
	joined bool        // a query has joined the blocks into data
	sorted bool
}

// blockLen is the length of every block after the first.
const blockLen = 4096

// NewSample returns an empty sample whose first block holds capacity
// observations.
func NewSample(capacity int) *Sample {
	return &Sample{data: make([]float64, 0, capacity), sorted: true}
}

// Add records one observation. Before the first query, a full block is
// set aside and a new one started; after it, the joined slice grows.
//
//amoeba:noalloc
func (s *Sample) Add(v float64) {
	n := len(s.data)
	if s.sorted && n > 0 && v < s.data[n-1] {
		s.sorted = false
	}
	if n == cap(s.data) && !s.joined {
		if n > 0 {
			//amoeba:allowalloc(block list growth: one slice header per 4096 observations, amortised)
			s.full = append(s.full, s.data)
			s.held += n
		}
		//amoeba:allowalloc(block growth: a new block of 4096 observations once the last is full)
		s.data = make([]float64, 0, blockLen)
	}
	//amoeba:allowalloc(joined growth: after a query the sample grows as one slice; before it, the block has room)
	s.data = append(s.data, v)
}

// Len returns the number of observations.
func (s *Sample) Len() int { return s.held + len(s.data) }

// join gathers the blocks into one exactly sized slice, in the order the
// observations were added. Every query calls it first; only the first
// call copies.
func (s *Sample) join() {
	if s.joined {
		return
	}
	s.joined = true
	if len(s.full) == 0 && len(s.data) == cap(s.data) {
		return
	}
	data := make([]float64, 0, s.Len())
	for _, b := range s.full {
		data = append(data, b...)
	}
	s.data = append(data, s.data...)
	s.full, s.held = nil, 0
}

func (s *Sample) ensureSorted() {
	s.join()
	if !s.sorted {
		sort.Float64s(s.data)
		s.sorted = true
	}
}

// Quantile returns the q-quantile (0 <= q <= 1) using linear interpolation
// between closest ranks. It panics on an empty sample or q outside [0,1].
func (s *Sample) Quantile(q float64) float64 {
	if s.Len() == 0 {
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

// Mean returns the arithmetic mean. It panics on an empty sample.
func (s *Sample) Mean() float64 {
	if s.Len() == 0 {
		panic("stats: Mean of empty sample")
	}
	s.join()
	sum := 0.0
	for _, v := range s.data {
		sum += v
	}
	return sum / float64(len(s.data))
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
	if s.Len() == 0 || n < 2 {
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
