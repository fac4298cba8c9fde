package surfaces

import (
	"math"
	"testing"
	"testing/quick"

	"amoeba/internal/units"
)

func testSurface() *Surface {
	return &Surface{
		Service:   "float",
		Resource:  0,
		Pressures: []float64{0, 0.5, 1.0},
		Loads:     []float64{1, 10},
		Lat: [][]float64{
			{0.10, 0.12},
			{0.15, 0.18},
			{0.30, 0.40},
		},
	}
}

func TestValidate(t *testing.T) {
	s := testSurface()
	if err := s.Validate(); err != nil {
		t.Fatalf("valid surface rejected: %v", err)
	}
	bad := testSurface()
	bad.Lat[1][0] = 0
	if bad.Validate() == nil {
		t.Error("zero latency accepted")
	}
	bad2 := testSurface()
	bad2.Pressures = []float64{0, 0, 1}
	if bad2.Validate() == nil {
		t.Error("non-increasing pressure grid accepted")
	}
	bad3 := testSurface()
	bad3.Lat = bad3.Lat[:2]
	if bad3.Validate() == nil {
		t.Error("ragged surface accepted")
	}
}

func TestAtGridPoints(t *testing.T) {
	s := testSurface()
	for i, p := range s.Pressures {
		for j, l := range s.Loads {
			if got := s.At(p, units.QPS(l)); math.Abs(got.Raw()-s.Lat[i][j]) > 1e-12 {
				t.Errorf("At(%v, %v) = %v, want %v", p, l, got, s.Lat[i][j])
			}
		}
	}
}

func TestAtBilinearMidpoint(t *testing.T) {
	s := testSurface()
	// Centre of the lower-left cell: mean of its four corners.
	want := (0.10 + 0.12 + 0.15 + 0.18) / 4
	if got := s.At(0.25, 5.5); math.Abs(got.Raw()-want) > 1e-12 {
		t.Errorf("At(0.25, 5.5) = %v, want %v", got, want)
	}
}

func TestAtClamps(t *testing.T) {
	s := testSurface()
	if got := s.At(-1, 0); got != 0.10 {
		t.Errorf("At below range = %v, want corner 0.10", got)
	}
	if got := s.At(5, 100); got != 0.40 {
		t.Errorf("At above range = %v, want corner 0.40", got)
	}
}

func TestAtWithinConvexHullProperty(t *testing.T) {
	s := testSurface()
	f := func(pRaw, lRaw uint8) bool {
		p := float64(pRaw) / 255
		l := 1 + float64(lRaw)/255*9
		v := s.At(p, units.QPS(l))
		return v >= 0.10-1e-12 && v <= 0.40+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBaselineAt(t *testing.T) {
	s := testSurface()
	if got := s.BaselineAt(1); got != 0.10 {
		t.Errorf("BaselineAt(1) = %v, want 0.10", got)
	}
	if got := s.BaselineAt(10); got != 0.12 {
		t.Errorf("BaselineAt(10) = %v, want 0.12", got)
	}
}

func TestSetValidateAndPredict(t *testing.T) {
	mk := func(idx int, scale float64) *Surface {
		s := testSurface()
		s.Resource = idx
		for i := range s.Lat {
			for j := range s.Lat[i] {
				s.Lat[i][j] *= scale
			}
		}
		return s
	}
	set := &Set{Service: "float", Surfaces: [3]*Surface{mk(0, 1), mk(1, 2), mk(2, 3)}}
	if err := set.Validate(); err != nil {
		t.Fatalf("valid set rejected: %v", err)
	}
	for i, want := range []float64{0.10, 0.20, 0.30} {
		if got := set.Surfaces[i].At(0, 1); math.Abs(got.Raw()-want) > 1e-12 {
			t.Errorf("surface %d At(0, 1) = %v, want %v", i, got, want)
		}
	}

	missing := &Set{Service: "x"}
	if missing.Validate() == nil {
		t.Error("set with missing surfaces accepted")
	}
	mislabelled := &Set{Service: "x", Surfaces: [3]*Surface{mk(0, 1), mk(0, 1), mk(2, 1)}}
	if mislabelled.Validate() == nil {
		t.Error("mislabelled set accepted")
	}
}
