package resources

import "fmt"

// Usage integrates an allocation Vector over virtual time, producing
// resource-time totals (core-seconds, MB-seconds, ...). The paper's Fig. 11
// and Fig. 14 compare exactly these integrals, normalised to the pure
// IaaS deployment.
type Usage struct {
	last     float64 // time of last update
	current  Vector  // allocation since last update
	integral Vector  // accumulated resource-time
}

// NewUsage returns an accumulator starting at time t with zero allocation.
func NewUsage(t float64) *Usage {
	return &Usage{last: t}
}

// Record advances the integral to time t and sets the allocation that
// holds from t onward. It panics if t moves backwards — the simulator
// clock is monotone, so a regression means corrupted bookkeeping.
func (u *Usage) Record(t float64, alloc Vector) {
	if t < u.last {
		panic(fmt.Sprintf("resources: Usage.Record time went backwards: %v < %v", t, u.last))
	}
	dt := t - u.last
	u.integral = u.integral.Add(u.current.Scale(dt))
	u.current = alloc
	u.last = t
}

// Adjust adds delta to the current allocation at time t. Convenient for
// platforms that track container/VM arrivals and departures incrementally.
// Floating-point residue from repeated add/remove cycles (within -1e-9)
// is snapped to zero; genuinely negative allocations panic.
func (u *Usage) Adjust(t float64, delta Vector) {
	u.Record(t, u.current.Add(delta).SnapResidue())
	if !u.current.NonNegative() {
		panic(fmt.Sprintf("resources: allocation went negative: %v", u.current))
	}
}

// Current returns the allocation in force now.
func (u *Usage) Current() Vector { return u.current }

// TotalAt finalises the integral at time t and returns resource-time
// totals. The accumulator remains usable afterwards.
func (u *Usage) TotalAt(t float64) Vector {
	u.Record(t, u.current)
	return u.integral
}
