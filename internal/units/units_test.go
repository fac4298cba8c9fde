package units

import (
	"math"
	"testing"
)

func TestSecondsMillisRoundTrip(t *testing.T) {
	s := Seconds(0.18)
	if got := s.Millis(); got != 180 {
		t.Fatalf("0.18 s = %v ms, want 180", got)
	}
	if got := s.Millis().Seconds(); math.Abs(got.Raw()-0.18) > 1e-12 {
		t.Fatalf("round trip %v, want 0.18", got)
	}
}

func TestInWindowIsLittlesLawCount(t *testing.T) {
	// 100 QPS over a 0.18 s QoS window: 18 requests in flight.
	if got := QPS(100).InWindow(Seconds(0.18)); math.Abs(got-18) > 1e-12 {
		t.Fatalf("InWindow = %v, want 18", got)
	}
}

func TestPeriodAndServiceTime(t *testing.T) {
	if got := QPS(4).Period(); got != Seconds(0.25) {
		t.Fatalf("Period(4 QPS) = %v, want 0.25 s", got)
	}
	if got := ServiceRate(12.5).ServiceTime(); got != Seconds(0.08) {
		t.Fatalf("ServiceTime(12.5/s) = %v, want 0.08 s", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("Period(0) did not panic")
		}
	}()
	QPS(0).Period()
}

func TestCapacityAndUtilisation(t *testing.T) {
	mu := ServiceRate(12.5)
	if got := mu.Capacity(10); got != QPS(125) {
		t.Fatalf("Capacity(10) = %v, want 125 QPS", got)
	}
	if got := QPS(25).Utilisation(mu); math.Abs(got-2) > 1e-12 {
		t.Fatalf("Utilisation = %v, want 2 busy containers", got)
	}
}

func TestScaleRatioMinMax(t *testing.T) {
	if got := Scale(QPS(100), 0.8); got != QPS(80) {
		t.Fatalf("Scale = %v, want 80", got)
	}
	if got := Ratio(Seconds(1), Seconds(4)); got != 0.25 {
		t.Fatalf("Ratio = %v, want 0.25", got)
	}
	if got := Max(Seconds(1), Seconds(2)); got != 2 {
		t.Fatalf("Max = %v, want 2", got)
	}
}
