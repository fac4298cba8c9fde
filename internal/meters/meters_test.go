package meters

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAllMetersWellFormed(t *testing.T) {
	all := All()
	if len(all) != 3 {
		t.Fatalf("All() returned %d meters, want 3", len(all))
	}
	for i, m := range all {
		if m.Index != i {
			t.Errorf("meter %d has index %d", i, m.Index)
		}
		if err := m.Profile.Validate(); err != nil {
			t.Errorf("meter %d profile invalid: %v", i, err)
		}
	}
}

func TestMetersAreSingleResourceSensitive(t *testing.T) {
	// Each meter must be sensitive to exactly its own resource, so its
	// latency isolates that resource's pressure.
	cpu, io, net := CPUMeter(), IOMeter(), NetMeter()
	if cpu.Profile.Sensitivity.CPU != 1 || cpu.Profile.Sensitivity.IO != 0 || cpu.Profile.Sensitivity.Net != 0 {
		t.Errorf("cpu meter sensitivity %+v", cpu.Profile.Sensitivity)
	}
	if io.Profile.Sensitivity.IO != 1 || io.Profile.Sensitivity.CPU != 0 {
		t.Errorf("io meter sensitivity %+v", io.Profile.Sensitivity)
	}
	if net.Profile.Sensitivity.Net != 1 || net.Profile.Sensitivity.CPU != 0 {
		t.Errorf("net meter sensitivity %+v", net.Profile.Sensitivity)
	}
}

func testCurve() *Curve {
	return &Curve{
		Meter:     CPUMeter(),
		Pressures: []float64{0, 0.25, 0.5, 0.75, 1.0},
		Latencies: []float64{0.060, 0.065, 0.080, 0.120, 0.200},
	}
}

func TestCurveValidate(t *testing.T) {
	c := testCurve()
	if err := c.Validate(); err != nil {
		t.Fatalf("valid curve rejected: %v", err)
	}
	bad := &Curve{Pressures: []float64{0, 0.5, 0.5}, Latencies: []float64{1, 2, 3}}
	if bad.Validate() == nil {
		t.Error("non-increasing pressures accepted")
	}
	bad2 := &Curve{Pressures: []float64{0, 0.5, 1}, Latencies: []float64{1, 3, 2}}
	if bad2.Validate() == nil {
		t.Error("decreasing latencies accepted")
	}
	bad3 := &Curve{Pressures: []float64{0}, Latencies: []float64{1}}
	if bad3.Validate() == nil {
		t.Error("single-point curve accepted")
	}
}

func TestCurveLatencyAt(t *testing.T) {
	c := testCurve()
	// Exact grid points.
	for i, p := range c.Pressures {
		if got := c.LatencyAt(p); math.Abs(got.Raw()-c.Latencies[i]) > 1e-12 {
			t.Errorf("LatencyAt(%v) = %v, want %v", p, got, c.Latencies[i])
		}
	}
	// Midpoint interpolation.
	if got := c.LatencyAt(0.125); math.Abs(got.Raw()-0.0625) > 1e-12 {
		t.Errorf("LatencyAt(0.125) = %v, want 0.0625", got)
	}
	// Clamping.
	if c.LatencyAt(-1) != 0.060 || c.LatencyAt(5) != 0.200 {
		t.Error("LatencyAt does not clamp outside the profiled range")
	}
}

func TestCurvePressureForInvertsLatencyAt(t *testing.T) {
	c := testCurve()
	f := func(raw uint8) bool {
		p := float64(raw) / 255 // within [0, 1]
		lat := c.LatencyAt(p)
		back := c.PressureFor(lat)
		return math.Abs(back-p) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCurvePressureForClamps(t *testing.T) {
	c := testCurve()
	if c.PressureFor(0.001) != 0 {
		t.Error("latency below curve should clamp to min pressure")
	}
	if c.PressureFor(10) != 1.0 {
		t.Error("latency above curve should clamp to max pressure")
	}
}

func TestCurvePressureForFlatSegment(t *testing.T) {
	// A flat segment (after isotonic smoothing) must invert to its left
	// edge rather than dividing by zero.
	c := &Curve{
		Meter:     IOMeter(),
		Pressures: []float64{0, 0.5, 1.0},
		Latencies: []float64{0.06, 0.06, 0.10},
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	got := c.PressureFor(0.06)
	if got != 0 {
		t.Errorf("PressureFor on flat segment = %v, want 0", got)
	}
}
