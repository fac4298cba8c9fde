package contention

import (
	"math"
	"testing"
	"testing/quick"

	"amoeba/internal/resources"
	"amoeba/internal/sim"
)

func testModel() *Model {
	return NewModel(resources.Vector{CPU: 40, MemMB: 256 * 1024, DiskMBs: 2000, NetMbs: 25000})
}

func TestCurveShape(t *testing.T) {
	c := DefaultCurve()
	if c.Eval(0) != 0 {
		t.Errorf("h(0) = %v, want 0", c.Eval(0))
	}
	// Convex and monotone up to and past the knee.
	prev, prevSlope := 0.0, 0.0
	for p := 0.1; p <= 1.0; p += 0.1 {
		v := c.Eval(p)
		if v <= prev {
			t.Fatalf("curve not strictly increasing at p=%v", p)
		}
		slope := v - prev
		if slope < prevSlope-1e-12 {
			t.Fatalf("curve not convex at p=%v", p)
		}
		prev, prevSlope = v, slope
	}
	// Overload is large but finite.
	if over := c.Eval(2); math.IsInf(over, 0) || over < c.Eval(1) {
		t.Errorf("h(2) = %v, want finite and > h(1)", over)
	}
}

func TestCurveNegativePressurePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative pressure did not panic")
		}
	}()
	DefaultCurve().Eval(-0.1)
}

func TestPressureMapping(t *testing.T) {
	m := testModel()
	p := m.Pressure(resources.Vector{CPU: 20, DiskMBs: 1000, NetMbs: 12500})
	if p.CPU != 0.5 || p.IO != 0.5 || p.Net != 0.5 {
		t.Errorf("pressure = %+v, want all 0.5", p)
	}
}

func TestPressureGetOrdering(t *testing.T) {
	p := Pressure{CPU: 1, IO: 2, Net: 3}
	for i, want := range []float64{1, 2, 3} {
		if p.Get(i) != want {
			t.Errorf("Get(%d) = %v, want %v", i, p.Get(i), want)
		}
	}
}

func TestSlowdownNoContentionIsOne(t *testing.T) {
	m := testModel()
	s := Sensitivity{CPU: 1, IO: 1, Net: 1}
	if got := m.Slowdown(Pressure{}, s); got != 1 {
		t.Errorf("slowdown with zero pressure = %v, want 1", got)
	}
}

func TestSlowdownInsensitiveServiceUnaffected(t *testing.T) {
	m := testModel()
	p := Pressure{CPU: 0.9, IO: 0.9, Net: 0.9}
	if got := m.Slowdown(p, Sensitivity{}); got != 1 {
		t.Errorf("slowdown of insensitive service = %v, want 1", got)
	}
}

func TestSlowdownSelectiveSensitivity(t *testing.T) {
	// §II-D: a CPU-only-sensitive service is not degraded by pure network
	// contention.
	m := testModel()
	cpuOnly := Sensitivity{CPU: 0.9}
	netPressure := Pressure{Net: 0.95}
	if got := m.Slowdown(netPressure, cpuOnly); got != 1 {
		t.Errorf("CPU-sensitive service degraded %vx by net contention", got)
	}
	cpuPressure := Pressure{CPU: 0.95}
	if got := m.Slowdown(cpuPressure, cpuOnly); got <= 1.2 {
		t.Errorf("CPU-sensitive service only %vx under heavy CPU contention", got)
	}
}

func TestSubAdditiveCombination(t *testing.T) {
	// Ground truth (q=2) must never exceed the additive model, and must
	// be strictly below it when two resources are simultaneously loaded.
	m := testModel()
	s := Sensitivity{CPU: 0.8, IO: 0.8, Net: 0.3}
	p := Pressure{CPU: 0.7, IO: 0.7, Net: 0.4}
	truth := m.Slowdown(p, s)
	additive := m.AdditiveSlowdown(p, s)
	if truth > additive {
		t.Fatalf("q-norm slowdown %v exceeds additive %v", truth, additive)
	}
	if additive-truth < 0.05 {
		t.Fatalf("additive %v barely above truth %v; ablation would be vacuous", additive, truth)
	}
	// With a single loaded resource the two models coincide.
	p1 := Pressure{CPU: 0.8}
	if a, b := m.Slowdown(p1, s), m.AdditiveSlowdown(p1, s); math.Abs(a-b) > 1e-12 {
		t.Errorf("single-resource slowdowns differ: %v vs %v", a, b)
	}
}

func TestSlowdownMonotoneInPressure(t *testing.T) {
	m := testModel()
	s := Sensitivity{CPU: 0.5, IO: 0.5, Net: 0.5}
	prev := 0.0
	for p := 0.0; p <= 1.2; p += 0.05 {
		v := m.Slowdown(Pressure{CPU: p, IO: p, Net: p}, s)
		if v < prev {
			t.Fatalf("slowdown not monotone at p=%v", p)
		}
		prev = v
	}
}

func TestSlowdownProperty(t *testing.T) {
	m := testModel()
	f := func(pc, pi, pn, sc, si, sn uint8) bool {
		p := Pressure{CPU: float64(pc) / 128, IO: float64(pi) / 128, Net: float64(pn) / 128}
		s := Sensitivity{CPU: float64(sc) / 255, IO: float64(si) / 255, Net: float64(sn) / 255}
		truth := m.Slowdown(p, s)
		additive := m.AdditiveSlowdown(p, s)
		return truth >= 1 && additive >= truth-1e-12 && !math.IsNaN(truth)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestSensitivityValidate(t *testing.T) {
	if (Sensitivity{CPU: 0.5, IO: 1.0}).Validate() != nil {
		t.Error("valid sensitivity rejected")
	}
	if (Sensitivity{CPU: -0.1}).Validate() == nil {
		t.Error("negative sensitivity accepted")
	}
	if (Sensitivity{Net: 2}).Validate() == nil {
		t.Error("sensitivity 2 accepted")
	}
}

func TestDegradationsOrderingMatchesPressureGet(t *testing.T) {
	m := testModel()
	s := Sensitivity{CPU: 1, IO: 1, Net: 1}
	p := Pressure{CPU: 0.5}
	e := m.Degradations(p, s)
	if e[0] == 0 || e[1] != 0 || e[2] != 0 {
		t.Errorf("degradations %v: CPU pressure must hit index 0 only", e)
	}
}

// qNormPow is qNorm's general path, which the q=2 fast path must match
// bit for bit.
func qNormPow(xs []float64, q float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += math.Pow(x, q)
	}
	return math.Pow(s, 1/q)
}

// TestQNormEuclideanFastPathExact compares the q=2 fast path with the
// Pow path bit for bit on random terms of every magnitude, zeros, the
// subnormal boundary where x*x and Pow(x, 2) round differently, and
// terms whose squares overflow.
func TestQNormEuclideanFastPathExact(t *testing.T) {
	rng := sim.NewRNG(21)
	edge := math.Sqrt(0x1p-1022) // squares near the smallest normal
	special := []float64{0, math.SmallestNonzeroFloat64, 0x1p-1022, edge,
		math.Nextafter(edge, 0), math.Nextafter(edge, 1), edge * 1.5, edge * 0.75,
		1e-160, 1e-154, 1e-150, 1, 0.5, 1e150, 1e154, 1.4e154, math.MaxFloat64, math.Inf(1)}
	sample := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return special[rng.Intn(len(special))]
		case 1:
			return rng.Float64() // the model's working range
		case 2:
			return edge * rng.Uniform(0.25, 4) // the subnormal-square boundary
		default:
			return math.Ldexp(rng.Uniform(0.5, 1), rng.Intn(2100)-1075) // any exponent
		}
	}
	for i := 0; i < 2_000_000; i++ {
		xs := []float64{sample(), sample(), sample()}
		got, want := qNorm(xs, 2), qNormPow(xs, 2)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("qNorm(%v, 2) = %v, Pow path %v", xs, got, want)
		}
	}
	for _, a := range special {
		for _, b := range special {
			xs := []float64{a, b, edge}
			if got, want := qNorm(xs, 2), qNormPow(xs, 2); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("qNorm(%v, 2) = %v, Pow path %v", xs, got, want)
			}
		}
	}
}
