package stats

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// sliceSample is the contiguous-slice Sample that blocks replaced: every
// observation is appended to one slice, which a query sorts in place.
// The tests below hold Sample to it bit for bit.
type sliceSample struct {
	data   []float64
	sorted bool
}

func (s *sliceSample) Add(v float64) {
	if s.sorted && len(s.data) > 0 && v < s.data[len(s.data)-1] {
		s.sorted = false
	}
	s.data = append(s.data, v)
}

func (s *sliceSample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.data)
		s.sorted = true
	}
}

func (s *sliceSample) Quantile(q float64) float64 {
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

func (s *sliceSample) Mean() float64 {
	sum := 0.0
	for _, v := range s.data {
		sum += v
	}
	return sum / float64(len(s.data))
}

func (s *sliceSample) ScaledCDF(n int, div float64) (xs, fs []float64) {
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
		y := math.Nextafter(x, math.Inf(1))
		idx := sort.Search(len(s.data), func(i int) bool { return s.data[i]/div >= y })
		fs[i] = float64(idx) / float64(len(s.data))
	}
	return xs, fs
}

func (s *sliceSample) Values() []float64 {
	s.ensureSorted()
	return append([]float64(nil), s.data...)
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkAgainst compares every answer of s with the oracle's, and the
// sort caches: a cache that Sample kept where the oracle lost it would
// answer from stale order.
func checkAgainst(t *testing.T, label string, s *Sample, o *sliceSample) {
	t.Helper()
	if s.Len() != len(o.data) {
		t.Fatalf("%s: Len %d, oracle %d", label, s.Len(), len(o.data))
	}
	if s.Len() == 0 {
		if xs, fs := s.ScaledCDF(8, 1); xs != nil || fs != nil {
			t.Fatalf("%s: CDF of an empty sample = %v, %v", label, xs, fs)
		}
		return
	}
	if m, want := s.Mean(), o.Mean(); math.Float64bits(m) != math.Float64bits(want) {
		t.Fatalf("%s: Mean %v, oracle %v", label, m, want)
	}
	for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.95, 0.99, 1} {
		if got, want := s.Quantile(q), o.Quantile(q); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: Quantile(%v) = %v, oracle %v", label, q, got, want)
		}
	}
	for _, c := range []struct {
		n   int
		div float64
	}{{2, 1}, {40, 1}, {40, 0.37}, {3, 7}} {
		xs, fs := s.ScaledCDF(c.n, c.div)
		wantXs, wantFs := o.ScaledCDF(c.n, c.div)
		if !sameBits(xs, wantXs) || !sameBits(fs, wantFs) {
			t.Fatalf("%s: ScaledCDF(%d, %v) differs from the oracle", label, c.n, c.div)
		}
	}
	if !sameBits(s.Values(), o.Values()) {
		t.Fatalf("%s: Values differ from the oracle", label)
	}
	if s.sorted != o.sorted {
		t.Fatalf("%s: sort cache %v, oracle %v", label, s.sorted, o.sorted)
	}
}

// TestSampleBlocksMatchSlice fills a sample to each block boundary and
// past it, in random and in ascending order, and checks every query
// against the contiguous-slice oracle, and the sort cache after every
// Add. After the query it adds between the last value added and the
// sorted tail, where comparing against the last value added rather than
// the tail would keep a cache that no longer holds; then at and above
// the tail, where the cache holds; then below everything.
func TestSampleBlocksMatchSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sizes := []int{0, 1, blockLen - 1, blockLen, blockLen + 1, 3*blockLen + 1}
	for _, capacity := range []int{0, 1024, blockLen} {
		for _, n := range sizes {
			for _, ascending := range []bool{false, true} {
				label := fmt.Sprintf("capacity %d, %d values, ascending %v", capacity, n, ascending)
				s, o := NewSample(capacity), &sliceSample{sorted: true}
				last := 0.0
				add := func(v float64) {
					s.Add(v)
					o.Add(v)
					last = v
					if s.sorted != o.sorted {
						t.Fatalf("%s: sort cache %v after Add(%v), oracle %v", label, s.sorted, v, o.sorted)
					}
				}
				for i := 0; i < n; i++ {
					v := float64(rng.Intn(50)) * rng.Float64() // ties, zeros
					if ascending {
						v = float64(i / 3) // ties between neighbours
					}
					add(v)
				}
				checkAgainst(t, label, s, o)
				if n > 0 {
					if tail := o.data[n-1]; last < tail {
						add((last + tail) / 2)
						checkAgainst(t, label+", added below the tail", s, o)
					}
				}
				tail := 100.0
				if len(o.data) > 0 {
					tail = o.data[len(o.data)-1]
				}
				add(tail)
				add(tail + 1)
				checkAgainst(t, label+", added at and above the tail", s, o)
				add(-1)
				checkAgainst(t, label+", added below everything", s, o)
			}
		}
	}
}

// TestZeroAllocSampleAdd pins the block contract: an Add inside a block
// allocates nothing, and a sample that grows by three blocks allocates
// those three blocks and the headers that list them, never a copy of
// what it holds. Appending to one slice instead reallocates it about
// every quarter of its length, copying it each time: about five times
// the bytes.
//
//amoeba:alloctest stats.Sample.Add
func TestZeroAllocSampleAdd(t *testing.T) {
	s := NewSample(blockLen)
	v := 0.0
	add := func() { v++; s.Add(v) }
	if avg := testing.AllocsPerRun(blockLen-1, add); avg != 0 { // the warm-up is the first Add
		t.Fatalf("an Add inside a block allocates %.2f objects", avg)
	}
	grow := func() {
		for i := 0; i < 3*blockLen; i++ {
			add()
		}
	}
	grow() // fills three more blocks, so the block list has grown past its first sizes
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	grow()
	runtime.ReadMemStats(&after)
	const blockBytes = 8 * blockLen
	if got := after.TotalAlloc - before.TotalAlloc; got > 3*blockBytes+1024 {
		t.Fatalf("three blocks of Adds allocated %d bytes, want at most %d", got, 3*blockBytes+1024)
	}
	if s.Len() != 7*blockLen {
		t.Fatalf("Len %d, want %d", s.Len(), 7*blockLen)
	}
}
