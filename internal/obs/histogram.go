package obs

import (
	"fmt"
	"math"
)

// Histogram is a log-linear bounded histogram: the value range [lo, hi)
// is split into octaves (powers of two above lo), each octave into sub
// equal-width buckets. Quantile estimates carry a bounded relative
// error of at most 1/sub within the tracked range, at O(octaves·sub)
// memory — unlike stats.Sample, whose exact quantiles cost one float64
// per observation forever. With lo=1ms, hi=100s and sub=32 that is
// 17 octaves × 32 = 544 buckets (~4 KiB) for ~3% worst-case error on
// p95/p99, which is what the metric registry exposes for latencies.
//
// Out-of-range observations clamp into the edge buckets (their exact
// value still contributes to Sum/Min/Max), so quantiles degrade
// gracefully rather than failing when a latency spike exceeds hi.
type Histogram struct {
	lo, hi   float64
	sub      int
	counts   []uint64
	total    uint64
	sum      float64
	min, max float64
}

// NewHistogram creates a histogram covering [lo, hi) with sub linear
// buckets per octave. It panics unless 0 < lo < hi and sub ≥ 1 — the
// bounds are compile-time constants at every call site, so a violation
// is a programming bug, not bad input.
func NewHistogram(lo, hi float64, sub int) *Histogram {
	if lo <= 0 || hi <= lo || sub < 1 {
		panic(fmt.Sprintf("obs: invalid histogram shape lo=%v hi=%v sub=%d", lo, hi, sub))
	}
	octaves := int(math.Ceil(math.Log2(hi / lo)))
	if octaves < 1 {
		octaves = 1
	}
	return &Histogram{
		lo: lo, hi: hi, sub: sub,
		counts: make([]uint64, octaves*sub),
		min:    math.Inf(1), max: math.Inf(-1),
	}
}

// Buckets returns the number of allocated buckets — the memory bound.
func (h *Histogram) Buckets() int { return len(h.counts) }

// index maps a value to its bucket. Values below lo land in bucket 0,
// values at or above hi in the last bucket.
func (h *Histogram) index(v float64) int {
	if v < h.lo {
		return 0
	}
	oct := int(math.Floor(math.Log2(v / h.lo)))
	if oct < 0 {
		oct = 0
	}
	base := math.Ldexp(h.lo, oct) // lo · 2^oct, exact
	sb := int((v/base - 1) * float64(h.sub))
	if sb < 0 {
		sb = 0
	}
	if sb >= h.sub {
		sb = h.sub - 1
	}
	idx := oct*h.sub + sb
	if idx >= len(h.counts) {
		idx = len(h.counts) - 1
	}
	return idx
}

// lower returns the inclusive lower bound of bucket idx.
func (h *Histogram) lower(idx int) float64 {
	oct, sb := idx/h.sub, idx%h.sub
	base := math.Ldexp(h.lo, oct)
	return base * (1 + float64(sb)/float64(h.sub))
}

// upper returns the exclusive upper bound of bucket idx.
func (h *Histogram) upper(idx int) float64 {
	oct, sb := idx/h.sub, idx%h.sub
	base := math.Ldexp(h.lo, oct)
	return base * (1 + float64(sb+1)/float64(h.sub))
}

// Observe records one value. NaN observations are dropped: they carry
// no quantile information and would poison Sum.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	h.counts[h.index(v)]++
	h.total++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total }

// Sum returns the exact sum of observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the exact mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Min returns the smallest exact observation (0 when empty).
func (h *Histogram) Min() float64 {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest exact observation (0 when empty).
func (h *Histogram) Max() float64 {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) as the midpoint of the
// bucket holding the rank, clamped to the exact observed [Min, Max]. It
// returns 0 on an empty histogram and panics if q is outside [0,1] —
// quantile arguments are literals at every call site.
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("obs: quantile %v out of [0,1]", q))
	}
	if h.total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			mid := (h.lower(i) + h.upper(i)) / 2
			// The exact extremes beat the bucket resolution at the
			// edges (and cover clamped out-of-range observations).
			if mid < h.min {
				mid = h.min
			}
			if mid > h.max {
				mid = h.max
			}
			return mid
		}
	}
	return h.max
}

// P95 is shorthand for the 95th percentile, the paper's QoS quantile.
func (h *Histogram) P95() float64 { return h.Quantile(0.95) }

// Bucket is one non-empty histogram bucket for exposition.
type Bucket struct {
	Upper float64 // exclusive upper bound
	Count uint64  // observations in this bucket (not cumulative)
}

// NonEmptyBuckets returns the non-empty buckets in value order — the
// Prometheus-text expositor turns these into cumulative le-series.
func (h *Histogram) NonEmptyBuckets() []Bucket {
	var out []Bucket
	for i, c := range h.counts {
		if c > 0 {
			out = append(out, Bucket{Upper: h.upper(i), Count: c})
		}
	}
	return out
}
