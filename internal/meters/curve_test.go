package meters

import (
	"sort"

	"amoeba/internal/units"
)

// LatencyAt interpolates the meter latency at the given pressure,
// clamping outside the profiled range: the forward map that PressureFor
// inverts, and the oracle its tests compare against.
func (c *Curve) LatencyAt(p float64) units.Seconds {
	n := len(c.Pressures)
	if p <= c.Pressures[0] {
		return units.Seconds(c.Latencies[0])
	}
	if p >= c.Pressures[n-1] {
		return units.Seconds(c.Latencies[n-1])
	}
	i := sort.SearchFloat64s(c.Pressures, p)
	// Pressures[i-1] < p <= Pressures[i]
	x0, x1 := c.Pressures[i-1], c.Pressures[i]
	y0, y1 := c.Latencies[i-1], c.Latencies[i]
	f := (p - x0) / (x1 - x0)
	return units.Seconds(y0 + f*(y1-y0))
}
