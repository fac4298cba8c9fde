package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSampleQuantileKnown(t *testing.T) {
	s := NewSample(0)
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 100}, {0.5, 50.5}, {0.95, 95.05}, {0.25, 25.75},
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestSampleSingleValue(t *testing.T) {
	s := NewSample(0)
	s.Add(7)
	for _, q := range []float64{0, 0.5, 0.95, 1} {
		if got := s.Quantile(q); got != 7 {
			t.Errorf("Quantile(%v) of singleton = %v, want 7", q, got)
		}
	}
}

func TestSampleEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Quantile on empty sample did not panic")
		}
	}()
	NewSample(0).Quantile(0.5)
}

func TestSampleQuantileOutOfRangePanics(t *testing.T) {
	s := NewSample(0)
	s.Add(1)
	defer func() {
		if recover() == nil {
			t.Error("Quantile(1.5) did not panic")
		}
	}()
	s.Quantile(1.5)
}

// addAll records vs in order.
func addAll(s *Sample, vs ...float64) {
	for _, v := range vs {
		s.Add(v)
	}
}

func TestSampleMinMaxMean(t *testing.T) {
	s := NewSample(0)
	addAll(s, 5, 1, 9, 3)
	if s.Mean() != 4.5 {
		t.Errorf("Mean = %v, want 4.5", s.Mean())
	}
	if lo, hi := s.Quantile(0), s.Quantile(1); lo != 1 || hi != 9 {
		t.Errorf("Quantile(0)/Quantile(1) = %v/%v, want 1/9", lo, hi)
	}
}

func TestSampleFractionBelow(t *testing.T) {
	s := NewSample(0)
	addAll(s, 1, 2, 3, 4)
	s.ensureSorted()
	cases := []struct{ x, want float64 }{
		{0, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := s.fractionBelow(c.x, 1); got != c.want {
			t.Errorf("fractionBelow(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestSampleCDFMonotone(t *testing.T) {
	s := NewSample(0)
	for i := 0; i < 500; i++ {
		s.Add(math.Sin(float64(i)) * 10)
	}
	xs, fs := s.CDF(50)
	if len(xs) != 50 || len(fs) != 50 {
		t.Fatalf("CDF lengths %d/%d", len(xs), len(fs))
	}
	for i := 1; i < len(fs); i++ {
		if fs[i] < fs[i-1] {
			t.Fatalf("CDF not monotone at %d: %v < %v", i, fs[i], fs[i-1])
		}
	}
	if fs[len(fs)-1] != 1 {
		t.Errorf("CDF endpoint = %v, want 1", fs[len(fs)-1])
	}
}

// TestScaledCDFMatchesQuotientSample checks ScaledCDF bit for bit
// against CDF on a sample of the quotients, over random divisors and
// data with repeated values. At n = 2 every breakpoint is a quotient, so
// the "<= x" boundary is exercised at every endpoint.
func TestScaledCDFMatchesQuotientSample(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		div := 0.01 + 10*rng.Float64()
		s, oracle := NewSample(0), NewSample(0)
		var added []float64
		for i := 0; i < 1+rng.Intn(60); i++ {
			v := float64(rng.Intn(20)) * (0.001 + rng.Float64()) // ties at 0 and repeats
			if rng.Intn(3) == 0 && len(added) > 0 {
				v = added[rng.Intn(len(added))]
			}
			added = append(added, v)
			s.Add(v)
			oracle.Add(v / div)
		}
		for _, n := range []int{2, 3, 40} {
			xs, fs := s.ScaledCDF(n, div)
			wantXs, wantFs := oracle.CDF(n)
			for i := range wantXs {
				if math.Float64bits(xs[i]) != math.Float64bits(wantXs[i]) ||
					math.Float64bits(fs[i]) != math.Float64bits(wantFs[i]) {
					t.Fatalf("trial %d, div %v, n=%d point %d: (%v, %v), quotient sample (%v, %v)",
						trial, div, n, i, xs[i], fs[i], wantXs[i], wantFs[i])
				}
			}
		}
	}
}

func TestScaledCDFRejectsNonPositiveDivisor(t *testing.T) {
	s := NewSample(0)
	s.Add(1)
	for _, div := range []float64{0, -1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ScaledCDF divisor %v did not panic", div)
				}
			}()
			s.ScaledCDF(4, div)
		}()
	}
}

func TestSampleAddAfterQuery(t *testing.T) {
	s := NewSample(0)
	addAll(s, 3, 1, 2)
	_ = s.Quantile(0.5)
	s.Add(0)
	if s.Quantile(0) != 0 {
		t.Error("Add after query not reflected in Quantile(0)")
	}
}

func TestSampleQuantileProperty(t *testing.T) {
	f := func(raw []uint16, qRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		s := NewSample(len(raw))
		for _, v := range raw {
			s.Add(float64(v))
		}
		q := float64(qRaw) / 255
		got := s.Quantile(q)
		return got >= s.Quantile(0) && got <= s.Quantile(1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleValuesSortedCopy(t *testing.T) {
	s := NewSample(0)
	addAll(s, 3, 1, 2)
	vs := s.Values()
	if !sort.Float64sAreSorted(vs) {
		t.Error("Values not sorted")
	}
	vs[0] = -100
	if s.Quantile(0) == -100 {
		t.Error("Values returned internal slice, not a copy")
	}
}

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Initialized() {
		t.Error("fresh EWMA reports initialized")
	}
	e.Update(10)
	if e.Value() != 10 {
		t.Errorf("first update = %v, want 10", e.Value())
	}
	e.Update(20)
	if e.Value() != 15 {
		t.Errorf("second update = %v, want 15", e.Value())
	}
	e.Update(20)
	if e.Value() != 17.5 {
		t.Errorf("third update = %v, want 17.5", e.Value())
	}
}

func TestEWMAConvergence(t *testing.T) {
	e := NewEWMA(0.2)
	for i := 0; i < 200; i++ {
		e.Update(42)
	}
	if math.Abs(e.Value()-42) > 1e-9 {
		t.Errorf("EWMA did not converge: %v", e.Value())
	}
}

func TestEWMAInvalidAlphaPanics(t *testing.T) {
	for _, alpha := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewEWMA(%v) did not panic", alpha)
				}
			}()
			NewEWMA(alpha)
		}()
	}
}
