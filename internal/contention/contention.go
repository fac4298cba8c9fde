// Package contention is the ground-truth interference model of the shared
// serverless platform (§II-D). Co-located containers contend for cores,
// disk-IO bandwidth, and network bandwidth; memory pressure does not slow
// execution down but bounds how many containers can run (handled by the
// pool's admission, not here).
//
// Two modelling decisions matter for reproducing the paper:
//
//  1. Per-resource slowdown is a convex function of pressure (demand over
//     capacity): negligible when the resource is underloaded, super-linear
//     as it saturates. This is what makes the meter profiling curves of
//     Fig. 8 hockey-stick shaped.
//
//  2. Slowdowns on different resources do NOT accumulate additively
//     (§II-E: "the performance degradation ... is not the simple
//     accumulation"). A query stalled on disk is not simultaneously
//     burning its full CPU share, so the joint effect is sub-additive. We
//     combine per-resource degradations with a q-norm (default q = 2).
//     The additive assumption (q = 1) is exactly what the Amoeba-NoM
//     ablation uses for *prediction*, which makes it pessimistic and late
//     to switch — reproducing Fig. 14/15 mechanically.
package contention

import (
	"fmt"
	"math"

	"amoeba/internal/resources"
)

// Curve maps a resource's pressure (aggregate demand / capacity) to a raw
// degradation factor h(p) >= 0. The form is piecewise:
//
//	h(p) = Quad · p²                      p <= 1   (interference regime)
//	h(p) = Quad + Overload · (p − 1)      p > 1    (fair-sharing regime)
//
// Below saturation, co-runners interfere quadratically (cache and queue
// effects compound as the resource fills). Beyond saturation the hardware
// shares bandwidth fairly, so each consumer slows in proportion to the
// oversubscription — linear, not explosive. Keeping the overload regime
// linear matters for stability: an explosive tail would let any
// open-loop workload near saturation death-spiral (slower bodies → more
// concurrency → more pressure), which real bandwidth-shared devices do
// not do.
//
// With Overload = 2·Quad the two pieces join with matching slope at
// p = 1, keeping h convex and monotone everywhere.
type Curve struct {
	Quad     float64 // quadratic interference coefficient
	Overload float64 // slope of the fair-sharing regime past p = 1
}

// DefaultCurve returns the per-resource degradation curve used across the
// repository: a maximally sensitive service slows ~1.6x when its resource
// reaches full utilisation, consistent with the degradations OpenWhisk
// exhibits in Fig. 10.
func DefaultCurve() Curve {
	return Curve{Quad: 0.6, Overload: 1.2}
}

// Eval returns h(p). Negative pressure panics: it indicates an accounting
// bug upstream.
func (c Curve) Eval(p float64) float64 {
	if p < 0 {
		panic(fmt.Sprintf("contention: negative pressure %v", p))
	}
	if p <= 1 {
		return c.Quad * p * p
	}
	return c.Quad + c.Overload*(p-1)
}

// Sensitivity is a service's susceptibility to contention on each
// resource, in [0, 1] per dimension (Table III). Memory sensitivity is
// carried for reporting but does not enter the slowdown (see package
// comment).
type Sensitivity struct {
	CPU float64
	IO  float64
	Net float64
}

// Validate reports out-of-range sensitivities.
func (s Sensitivity) Validate() error {
	for _, v := range []float64{s.CPU, s.IO, s.Net} {
		if v < 0 || v > 1.5 {
			return fmt.Errorf("contention: sensitivity %v out of [0, 1.5]", v)
		}
	}
	return nil
}

// Model is the platform-wide interference model.
type Model struct {
	Capacity resources.Vector // the serverless node's capacity
	CPUCurve Curve
	IOCurve  Curve
	NetCurve Curve
	// Norm is the exponent q of the q-norm combining per-resource
	// degradations. q = 2 (default) is the correlated ground truth;
	// q = 1 is the naive additive model.
	Norm float64
}

// NewModel returns the default model for a node with the given capacity.
func NewModel(capacity resources.Vector) *Model {
	return &Model{
		Capacity: capacity,
		CPUCurve: DefaultCurve(),
		IOCurve:  DefaultCurve(),
		NetCurve: DefaultCurve(),
		Norm:     2,
	}
}

// Pressure converts an aggregate demand into per-resource pressures.
// Tiny negative components (floating-point residue from incremental
// demand accounting) are clamped to zero; genuinely negative demand
// still panics downstream.
func (m *Model) Pressure(demand resources.Vector) Pressure {
	p := demand.DivideBy(m.Capacity)
	clamp := func(v float64) float64 {
		if v < 0 && v > -1e-9 {
			return 0
		}
		return v
	}
	return Pressure{CPU: clamp(p.CPU), IO: clamp(p.DiskMBs), Net: clamp(p.NetMbs)}
}

// Pressure is the quantified contention on the three meter-visible
// resources — the set P = {P_cpu, P_io, P_net} of §IV-B.
type Pressure struct {
	CPU float64
	IO  float64
	Net float64
}

// Get returns the component for the given meter resource index
// (0 = CPU, 1 = IO, 2 = Net), matching the L₁..L₃ ordering of Eq. 6.
// It panics if the index is outside [0, NumMeterResources).
func (p Pressure) Get(i int) float64 {
	switch i {
	case 0:
		return p.CPU
	case 1:
		return p.IO
	case 2:
		return p.Net
	}
	panic(fmt.Sprintf("contention: pressure index %d out of range", i))
}

// NumMeterResources is the number of contention-meter resource dimensions.
const NumMeterResources = 3

// Degradations returns the per-resource degradation terms
// e_i = s_i · h_i(p_i) for a service with the given sensitivities.
func (m *Model) Degradations(p Pressure, s Sensitivity) [NumMeterResources]float64 {
	return [NumMeterResources]float64{
		s.CPU * m.CPUCurve.Eval(p.CPU),
		s.IO * m.IOCurve.Eval(p.IO),
		s.Net * m.NetCurve.Eval(p.Net),
	}
}

// Slowdown returns the ground-truth latency multiplier (>= 1) for a
// service with sensitivities s under pressure p:
//
//	S = 1 + (Σ_i e_i^q)^(1/q)
func (m *Model) Slowdown(p Pressure, s Sensitivity) float64 {
	e := m.Degradations(p, s)
	return 1 + qNorm(e[:], m.Norm)
}

// AdditiveSlowdown returns the naive additive combination 1 + Σ e_i —
// the pessimistic assumption Amoeba-NoM is stuck with.
func (m *Model) AdditiveSlowdown(p Pressure, s Sensitivity) float64 {
	e := m.Degradations(p, s)
	return 1 + e[0] + e[1] + e[2]
}

// qNorm computes the q-norm of xs. It panics if the exponent is
// non-positive or any degradation term is negative — both indicate a
// corrupted Model, not bad user input.
func qNorm(xs []float64, q float64) float64 {
	if q <= 0 {
		panic(fmt.Sprintf("contention: invalid norm exponent %v", q))
	}
	if q == 1 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s
	}
	if q == 2 {
		// The shipped Euclidean norm, bit-identical to the Pow path below:
		// Pow(s, 0.5) is Sqrt(s) by Pow's own special case, and Pow(x, 2)
		// rounds x² once, as x*x does, unless the square is subnormal or
		// near it, where Pow's final Ldexp rounds a second time.
		s := 0.0
		for _, x := range xs {
			if x < 0 {
				panic(fmt.Sprintf("contention: negative degradation %v", x))
			}
			sq := x * x
			if sq < 0x1p-1021 && x != 0 {
				sq = math.Pow(x, 2)
			}
			s += sq
		}
		return math.Sqrt(s)
	}
	s := 0.0
	for _, x := range xs {
		if x < 0 {
			panic(fmt.Sprintf("contention: negative degradation %v", x))
		}
		s += math.Pow(x, q)
	}
	return math.Pow(s, 1/q)
}
