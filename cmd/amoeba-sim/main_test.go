package main

import (
	"math"
	"testing"
)

// TestCheckHorizon pins the load-shape flags rejected before a scenario
// is built: each would otherwise panic or run forever.
func TestCheckHorizon(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	bad := []struct{ days, dayLength, trough float64 }{
		{1, 0, 0.2},
		{1, -5, 0.2},
		{1, nan, 0.2},
		{1, inf, 0.2},
		{0, 3600, 0.2},
		{-1, 3600, 0.2},
		{nan, 3600, 0.2},
		{inf, 3600, 0.2},
		{1, 3600, nan},
		{1, 3600, -0.1},
		{1, 3600, 1.5},
	}
	for _, c := range bad {
		if err := checkHorizon(c.days, c.dayLength, c.trough); err == nil {
			t.Errorf("checkHorizon(%v, %v, %v) accepted bad flags", c.days, c.dayLength, c.trough)
		}
	}
	for _, trough := range []float64{0, 0.2, 1} {
		if err := checkHorizon(1, 3600, trough); err != nil {
			t.Errorf("trough %v: %v", trough, err)
		}
	}
}
