package trace

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSampledInterpolation(t *testing.T) {
	s, err := NewSampled([]float64{0, 10, 20}, []float64{0, 100, 50})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ t, want float64 }{
		{0, 0}, {10, 100}, {20, 50}, {5, 50}, {15, 75},
		{-5, 0}, {100, 50}, // clamped outside the range
	}
	for _, c := range cases {
		if got := s.Rate(c.t); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Rate(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	if s.Peak() != 100 {
		t.Errorf("Peak = %v, want 100", s.Peak())
	}
	if from, to := s.times[0], s.times[len(s.times)-1]; from != 0 || to != 20 {
		t.Errorf("Span = %v..%v", from, to)
	}
}

func TestSampledValidation(t *testing.T) {
	if _, err := NewSampled([]float64{0}, []float64{1}); err == nil {
		t.Error("single sample accepted")
	}
	if _, err := NewSampled([]float64{0, 0}, []float64{1, 2}); err == nil {
		t.Error("non-increasing times accepted")
	}
	if _, err := NewSampled([]float64{0, 1}, []float64{1, -2}); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := NewSampled([]float64{0, 1}, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestSampledRateWithinEnvelope(t *testing.T) {
	s, _ := NewSampled([]float64{0, 5, 10, 15}, []float64{10, 80, 30, 60})
	f := func(raw uint16) bool {
		tt := float64(raw) / 65535 * 20
		r := s.Rate(tt)
		return r >= 10-1e-9 && r <= s.Peak()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestLoadCSV(t *testing.T) {
	csv := `# Didi-shaped replay, one sample per 10 minutes
time_s,qps
0, 12
600, 48.5
1200, 80
1800, 30
`
	s, err := LoadCSV(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.times) != 4 {
		t.Fatalf("parsed %d samples, want 4", len(s.times))
	}
	if s.Rate(600) != 48.5 {
		t.Errorf("Rate(600) = %v", s.Rate(600))
	}
	if s.Peak() != 80 {
		t.Errorf("Peak = %v", s.Peak())
	}
}

func TestLoadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"three columns": "0,1,2\n1,2,3\n",
		"bad number":    "0,1\nxx,yy\n",
		"too short":     "0,5\n",
		"overflow gap":  "-1.7e308,1\n1.7e308,2\n",
	}
	for name, csv := range cases {
		if _, err := LoadCSV(strings.NewReader(csv)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// FuzzLoadCSV checks that every input either fails to load or yields a
// trace with finite, strictly increasing times, finite gaps between them
// and a finite peak, whose Rate is finite and non-negative inside every
// gap, and never panics. The seeds include the NaN and infinite rows a
// replay CSV once loaded silently (an infinite rate never finished
// replaying), and two finite times whose gap overflows, which made Rate
// return NaN.
func FuzzLoadCSV(f *testing.F) {
	for _, seed := range []string{
		"time_s,qps\n0,12\n600,48.5\n1200,80\n",
		"0,nan\n1,1\n",
		"0,inf\n1,1\n",
		"0,1\n1,-inf\n",
		"nan,1\n1,1\n",
		"0,1\ninf,2\n",
		"-inf,1\n0,1\n",
		"# peak\n0,1\n1e308,1.7e308\n",
		"-1.7e308,1\n1.7e308,2\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, csv string) {
		s, err := LoadCSV(strings.NewReader(csv))
		if err != nil {
			return
		}
		if p := s.Peak(); math.IsNaN(p) || math.IsInf(p, 0) {
			t.Fatalf("loaded a trace with peak %v", p)
		}
		for i, x := range s.times {
			if math.IsNaN(x) || math.IsInf(x, 0) || (i > 0 && !(x > s.times[i-1])) {
				t.Fatalf("loaded a trace with times %v", s.times)
			}
			if i == 0 {
				continue
			}
			if math.IsInf(x-s.times[i-1], 0) {
				t.Fatalf("loaded a trace whose gap before sample %d overflows: %v", i, s.times)
			}
			at := 0.25*s.times[i-1] + 0.75*x
			if r := s.Rate(at); !(r >= 0) || math.IsInf(r, 1) {
				t.Fatalf("Rate(%v) = %v inside the gap before sample %d of %v", at, r, i, s.times)
			}
		}
	})
}

func TestResampleApproximatesDiurnal(t *testing.T) {
	d := NewDiurnal(100, 20, 3600, 1)
	s := Resample(d, 0, 3600, 720)
	// Dense resampling must track the original closely.
	for _, tt := range []float64{0, 450, 900, 1800, 2700, 3599} {
		orig, got := d.Rate(tt), s.Rate(tt)
		if math.Abs(orig-got) > 0.05*(orig+1) {
			t.Errorf("Resample diverges at t=%v: %v vs %v", tt, got, orig)
		}
	}
	if s.Peak() > d.Peak()+1e-9 {
		t.Errorf("resampled peak %v above original bound %v", s.Peak(), d.Peak())
	}
}

func TestResampleInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid resample window did not panic")
		}
	}()
	Resample(Constant{QPS: 1}, 10, 10, 5)
}
