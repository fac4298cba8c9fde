package trace

import (
	"math"
	"testing"
)

func TestConstant(t *testing.T) {
	c := Constant{QPS: 5}
	if c.Rate(0) != 5 || c.Rate(1e6) != 5 || c.Peak() != 5 {
		t.Error("constant trace not constant")
	}
}

func TestStep(t *testing.T) {
	s := Step{Before: 2, After: 8, At: 100}
	if s.Rate(99) != 2 || s.Rate(100) != 8 {
		t.Error("step trace wrong around boundary")
	}
	if s.Peak() != 8 {
		t.Errorf("peak = %v, want 8", s.Peak())
	}
}

func TestDiurnalShape(t *testing.T) {
	const day = 86400.0
	d := NewDiurnal(100, 20, day, 1)

	// The trough must occur near midnight and be well below the peak.
	night := d.Rate(0.02 * day)
	noon := d.Rate(d.MorningPeak * day)
	if night >= noon {
		t.Fatalf("night rate %v >= rush-hour rate %v", night, noon)
	}
	// Paper: low load below ~30%% of peak.
	min, max := math.Inf(1), 0.0
	for i := 0; i < 5000; i++ {
		r := d.Rate(float64(i) / 5000 * day)
		if r < min {
			min = r
		}
		if r > max {
			max = r
		}
	}
	if min/max > 0.35 {
		t.Errorf("trough/peak = %.2f, want < 0.35 (diurnal pattern)", min/max)
	}
	if max > d.Peak()+1e-9 {
		t.Errorf("observed max %v exceeds Peak() bound %v", max, d.Peak())
	}
	if max < 85 || max > 115 {
		t.Errorf("observed peak %v far from configured 100", max)
	}
}

func TestDiurnalNonNegativeAndPeriodic(t *testing.T) {
	d := NewDiurnal(50, 10, 3600, 7)
	for i := 0; i < 3000; i++ {
		tt := float64(i) * 3.7
		r := d.Rate(tt)
		if r < 0 {
			t.Fatalf("negative rate %v at t=%v", r, tt)
		}
		if r2 := d.Rate(tt + 3600); math.Abs(r-r2) > 1e-9 {
			t.Fatalf("trace not periodic: %v vs %v", r, r2)
		}
	}
}

func TestDiurnalDeterministicPerSeed(t *testing.T) {
	a := NewDiurnal(100, 20, 86400, 5)
	b := NewDiurnal(100, 20, 86400, 5)
	c := NewDiurnal(100, 20, 86400, 6)
	differ := false
	for i := 0; i < 100; i++ {
		tt := float64(i) * 777
		if a.Rate(tt) != b.Rate(tt) {
			t.Fatalf("same-seed traces differ at t=%v", tt)
		}
		if a.Rate(tt) != c.Rate(tt) {
			differ = true
		}
	}
	if !differ {
		t.Error("different seeds produced identical noise")
	}
}

// diurnalArgs are NewDiurnal's arguments, and whether it accepts them.
var diurnalArgs = []struct {
	peak, trough, day float64
	ok                bool
}{
	{100, 20, 3600, true},
	{100, 0, 1e-9, true},
	{math.MaxFloat64, 0, math.MaxFloat64, true},
	{0, 0, 100, false},
	{-1, 0, 100, false},
	{10, 10, 100, false}, // trough >= peak
	{10, 11, 100, false},
	{10, -1, 100, false},
	{10, 1, 0, false},
	{10, 1, -5, false},
	{math.NaN(), 1, 100, false},
	{10, math.NaN(), 100, false},
	{10, 1, math.NaN(), false},
	{math.Inf(1), 1, 100, false},
	{10, math.Inf(1), 100, false},
	{10, math.Inf(-1), 100, false},
	{10, 1, math.Inf(1), false},
	{math.Inf(-1), 1, 100, false},
}

// TestDiurnalInvalidPanics: CheckDiurnal rejects a peak that is not
// positive and finite, a trough outside [0, peak) and a day length that
// is not positive and finite, NaN included, and NewDiurnal panics on
// exactly those.
func TestDiurnalInvalidPanics(t *testing.T) {
	for _, c := range diurnalArgs {
		if err := CheckDiurnal(c.peak, c.trough, c.day); (err == nil) != c.ok {
			t.Errorf("CheckDiurnal(%v, %v, %v) = %v, want ok %t", c.peak, c.trough, c.day, err, c.ok)
		}
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			NewDiurnal(c.peak, c.trough, c.day, 1)
			return false
		}()
		if panicked == c.ok {
			t.Errorf("NewDiurnal(%v, %v, %v): panicked %t, want %t", c.peak, c.trough, c.day, panicked, !c.ok)
		}
	}
}

func TestScaled(t *testing.T) {
	s := Scaled{Inner: Constant{QPS: 4}, Factor: 2.5}
	if s.Rate(0) != 10 || s.Peak() != 10 {
		t.Error("scaled trace wrong")
	}
}

func TestBurst(t *testing.T) {
	b := Burst{Inner: Constant{QPS: 3}, Extra: 7, From: 10, To: 20}
	if b.Rate(5) != 3 || b.Rate(15) != 10 || b.Rate(20) != 3 {
		t.Error("burst trace wrong")
	}
	if b.Peak() != 10 {
		t.Errorf("burst peak = %v, want 10", b.Peak())
	}
}

// TestDiurnalPeakCoversScanGap checks that Peak is a true bound for the
// repository's curves: the rate between two scan points can rise above
// the scanned maximum by at most L·Δ/2 (Δ the scan step, L the Lipschitz
// bound), and Peak's headroom covers that, so thinning never caps the
// accept probability.
func TestDiurnalPeakCoversScanGap(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		for _, day := range []float64{600, 900, 3600, 86400} {
			d := NewDiurnal(100, 20, day, seed)
			mx := 0.0
			for i := 0; i < 2000; i++ {
				mx = math.Max(mx, d.Rate(float64(i)/2000*day))
			}
			if need := mx + d.Lipschitz()*(day/2000)/2; d.Peak() < need {
				t.Fatalf("seed %d day %v: Peak %v below scanned max %v + L·Δ/2 = %v",
					seed, day, d.Peak(), mx, need)
			}
		}
	}
}

// TestDiurnalLipschitzBoundsSlope checks the slope bound against finite
// differences over whole days, including the phase wrap, for default,
// strong and disabled noise and a clipping noise amplitude.
func TestDiurnalLipschitzBoundsSlope(t *testing.T) {
	for _, noise := range []float64{-1, 0, 0.3, 2.5} {
		d := NewDiurnal(80, 10, 1000, 3)
		if noise >= 0 {
			d.NoiseAmp = noise
		}
		if d.Period() != d.DayLength {
			t.Fatalf("Period %v, want the day length %v", d.Period(), d.DayLength)
		}
		L := d.Lipschitz()
		if !(L > 0) || math.IsInf(L, 0) {
			t.Fatalf("noise %v: Lipschitz %v", noise, L)
		}
		const h = 1e-3
		steepest, prev := 0.0, d.Rate(0)
		for i := 1; i <= 1_100_000; i++ { // one day and the wrap into the next
			next := d.Rate(float64(i) * h)
			steepest = math.Max(steepest, math.Abs(next-prev)/h)
			prev = next
		}
		if steepest > L {
			t.Fatalf("noise %v: finite-difference slope %v exceeds Lipschitz %v", noise, steepest, L)
		}
		if steepest < L/20 {
			t.Errorf("noise %v: bound %v is over 20x the steepest slope %v", noise, L, steepest)
		}
	}
}
