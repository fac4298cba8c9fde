// Package surfaces implements the latency surfaces of §IV-B (Fig. 9): for
// one microservice and one shared resource, a 2-D grid mapping (pressure
// on that resource, the microservice's own load) to the microservice's
// mean body latency. The deployment controller looks surfaces up to
// predict the per-resource latencies L₁..L₃ that feed Eq. 6 — whose μ is
// a mean processing capacity, hence the mean statistic; queueing and tail
// behaviour are the M/M/N discriminant's job (Eq. 5).
package surfaces

import (
	"fmt"
	"sort"

	"amoeba/internal/units"
)

// Surface is one profiled latency surface.
type Surface struct {
	Service   string
	Resource  int       // meter index (0 = CPU, 1 = IO, 2 = Net)
	Pressures []float64 // strictly increasing grid on the pressure axis
	Loads     []float64 // strictly increasing grid on the load (QPS) axis
	// Lat[i][j] is the mean body latency at Pressures[i], Loads[j], in
	// seconds.
	Lat [][]float64
}

// Validate reports malformed surfaces.
func (s *Surface) Validate() error {
	if len(s.Pressures) < 2 || len(s.Loads) < 2 {
		return fmt.Errorf("surfaces: %s/r%d grid too small (%dx%d)",
			s.Service, s.Resource, len(s.Pressures), len(s.Loads))
	}
	if len(s.Lat) != len(s.Pressures) {
		return fmt.Errorf("surfaces: %s/r%d has %d rows, want %d",
			s.Service, s.Resource, len(s.Lat), len(s.Pressures))
	}
	for i, row := range s.Lat {
		if len(row) != len(s.Loads) {
			return fmt.Errorf("surfaces: %s/r%d row %d has %d cols, want %d",
				s.Service, s.Resource, i, len(row), len(s.Loads))
		}
		for j, v := range row {
			if v <= 0 {
				return fmt.Errorf("surfaces: %s/r%d non-positive latency at (%d,%d)",
					s.Service, s.Resource, i, j)
			}
		}
	}
	for i := 1; i < len(s.Pressures); i++ {
		if s.Pressures[i] <= s.Pressures[i-1] {
			return fmt.Errorf("surfaces: pressures not increasing at %d", i)
		}
	}
	for j := 1; j < len(s.Loads); j++ {
		if s.Loads[j] <= s.Loads[j-1] {
			return fmt.Errorf("surfaces: loads not increasing at %d", j)
		}
	}
	return nil
}

// segment locates x on a grid, returning the lower index and the
// interpolation fraction, clamped to the grid's range.
func segment(grid []float64, x float64) (int, float64) {
	n := len(grid)
	if x <= grid[0] {
		return 0, 0
	}
	if x >= grid[n-1] {
		return n - 2, 1
	}
	i := sort.SearchFloat64s(grid, x)
	// grid[i-1] < x <= grid[i]
	f := (x - grid[i-1]) / (grid[i] - grid[i-1])
	return i - 1, f
}

// At returns the bilinearly interpolated mean body latency at
// (pressure, load), clamped to the profiled region.
func (s *Surface) At(pressure float64, load units.QPS) units.Seconds {
	pi, pf := segment(s.Pressures, pressure)
	li, lf := segment(s.Loads, load.Raw())
	a := s.Lat[pi][li]*(1-lf) + s.Lat[pi][li+1]*lf
	b := s.Lat[pi+1][li]*(1-lf) + s.Lat[pi+1][li+1]*lf
	return units.Seconds(a*(1-pf) + b*pf)
}

// BaselineAt returns the zero-pressure latency at the given load — the
// L₀(V_u) reference the controller divides by to turn an absolute
// latency into a degradation.
func (s *Surface) BaselineAt(load units.QPS) units.Seconds {
	return s.At(s.Pressures[0], load)
}

// Set is the complete per-service surface collection: one surface per
// meter resource.
type Set struct {
	Service  string
	Surfaces [3]*Surface
}

// Validate checks all three surfaces are present and well-formed.
func (s *Set) Validate() error {
	for i, sf := range s.Surfaces {
		if sf == nil {
			return fmt.Errorf("surfaces: %s missing surface %d", s.Service, i)
		}
		if sf.Resource != i {
			return fmt.Errorf("surfaces: %s surface %d labelled %d", s.Service, i, sf.Resource)
		}
		if err := sf.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// PredictLatencies returns L₁..L₃ at the given platform pressure and own
// load (§IV-B Measurement step).
func (s *Set) PredictLatencies(p [3]float64, load units.QPS) [3]units.Seconds {
	var out [3]units.Seconds
	for i, sf := range s.Surfaces {
		out[i] = sf.At(p[i], load)
	}
	return out
}
