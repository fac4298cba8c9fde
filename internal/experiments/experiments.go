// Package experiments implements one driver per table and figure of the
// paper's evaluation (§VII). Each driver returns a typed result with the
// measured rows/series and can render itself through internal/report.
// The per-experiment index — paper artifact → driver → bench target —
// lives in DESIGN.md; EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"fmt"
	"math"

	"amoeba/internal/core"
	"amoeba/internal/sim"
	"amoeba/internal/trace"
	"amoeba/internal/units"
	"amoeba/internal/workload"
)

// Config scopes every experiment run.
type Config struct {
	// DayLength is the virtual length of one diurnal day, seconds. The
	// paper runs wall-clock days; the simulation compresses a day so the
	// controller still sees dozens of decision periods per load level.
	DayLength units.Seconds
	// Days is the horizon in days.
	Days float64
	// TroughFraction is the night trough as a fraction of peak
	// (paper: low load < 30% of peak).
	TroughFraction units.Fraction
	// Seed fixes all randomness.
	Seed uint64
	// Quick shrinks durations for tests; results get noisier.
	Quick bool
}

// DefaultConfig returns the standard evaluation configuration.
func DefaultConfig() Config {
	return Config{
		DayLength:      3600,
		Days:           1,
		TroughFraction: 0.2,
		Seed:           0xA0EBA,
	}
}

// Validate reports configuration errors: a day length or day count
// that is not positive and finite, a trough fraction outside (0,1), and
// a horizon past core.MaxDuration, which every run would reject.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"day length", c.DayLength.Raw()}, {"days", c.Days}} {
		if !(f.v > 0) || math.IsInf(f.v, 1) {
			return fmt.Errorf("experiments: %s %v is not positive and finite", f.name, f.v)
		}
	}
	if t := c.TroughFraction.Raw(); !(t > 0 && t < 1) {
		return fmt.Errorf("experiments: trough fraction %v out of (0,1)", t)
	}
	if h := c.horizon(); h > core.MaxDuration {
		return fmt.Errorf("experiments: horizon %v s (days %v, day length %v s) exceeds the %v s cap",
			h.Raw(), c.Days, c.DayLength.Raw(), core.MaxDuration.Raw())
	}
	return nil
}

func (c Config) horizon() units.Seconds {
	h := units.Scale(c.DayLength, c.Days)
	if c.Quick {
		h = c.DayLength // quick mode: exactly one day
	}
	return h
}

// diurnalFor builds the benchmark's day-shaped trace.
func (c Config) diurnalFor(prof workload.Profile) trace.Trace {
	return trace.NewDiurnal(prof.PeakQPS, prof.PeakQPS*c.TroughFraction.Raw(), c.DayLength.Raw(), c.Seed^sim.HashName(prof.Name))
}

// scenario builds the standard single-benchmark scenario of §VII-A: the
// benchmark under a diurnal load plus the three background tenants.
func (c Config) scenario(prof workload.Profile, v core.Variant) core.Scenario {
	return core.Scenario{
		Variant:    v,
		Services:   []core.ServiceSpec{{Profile: prof, Trace: c.diurnalFor(prof)}},
		Background: core.BackgroundTenants(c.DayLength, c.Seed+7),
		Duration:   c.horizon(),
		Seed:       c.Seed ^ sim.HashName(prof.Name) ^ uint64(v)<<13,
	}
}

// benchmarks returns the evaluation suite, trimmed in quick mode.
func (c Config) benchmarks() []workload.Profile {
	if c.Quick {
		return []workload.Profile{workload.Float(), workload.DD()}
	}
	return workload.All()
}
