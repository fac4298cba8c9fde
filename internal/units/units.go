// Package units defines dimension-carrying scalar types for the model
// math of Eq. 5–8. The Amoeba papers' quantities — latencies and periods
// in seconds, arrival rates in queries per second, per-container service
// rates, dimensionless fractions, memory sizes — were historically passed
// around as indistinguishable bare float64, so a swapped argument or a
// ms/s mixup type-checked silently. Each type here is a defined type over
// float64: same-unit arithmetic works natively, cross-unit arithmetic is
// rejected by the compiler, and the deliberate boundary crossings are
// funnelled through the explicit helpers below.
//
// Two invariants are machine-checked by cmd/amoeba-vet:
//
//   - unitcheck forbids float64(x) casts that strip a unit type outside
//     this package (use Raw), conversions that reinterpret one unit as
//     another (use the conversion helpers), untyped literals flowing into
//     unit-typed parameters (wrap in the constructor conversion, e.g.
//     units.Seconds(0.18)), and same-unit products that would square the
//     dimension.
//   - boundscheck enforces the //amoeba:range contracts annotated on
//     declarations in this and other packages.
//
// The queueing-theory core (queueing.MMN) deliberately stays in raw
// float64: it is textbook M/M/N math in normalised rate space, and its
// public callers (queueing's Eq. 5–8 functions) form the typed boundary.
package units

// Seconds is a duration or latency in wall-clock seconds — QoS targets,
// execution times, cold-start delays, sample periods.
type Seconds float64

// Millis is a duration in milliseconds. It exists so that
// millisecond-quoted inputs (traces, external configs) must be converted
// explicitly instead of being mistaken for seconds.
type Millis float64

// QPS is an arrival rate in queries per second — loads V_u, admissible
// loads λ(μ_n), trace rates.
type QPS float64

// ServiceRate is a per-container service rate μ in queries per second.
// It is kept distinct from QPS: λ and μ share a dimension but never a
// role, and conflating them is exactly the class of bug Eq. 5 is
// sensitive to.
type ServiceRate float64

// Fraction is a dimensionless ratio constrained to the unit interval —
// quantiles, EWMA factors, allowed-error and trough fractions.
//
//amoeba:range [0,1]
type Fraction float64

// MegaBytes is a memory size in MB — container sizes, platform memory.
type MegaBytes float64

// Cores is a CPU capacity or demand in cores.
type Cores float64

// Raw strips the unit explicitly. Every call site is greppable; unitcheck
// forbids the silent float64(x) spelling outside this package.
func (s Seconds) Raw() float64 { return float64(s) }

// Raw strips the unit explicitly.
func (m Millis) Raw() float64 { return float64(m) }

// Raw strips the unit explicitly.
func (q QPS) Raw() float64 { return float64(q) }

// Raw strips the unit explicitly.
func (mu ServiceRate) Raw() float64 { return float64(mu) }

// Raw strips the unit explicitly.
func (f Fraction) Raw() float64 { return float64(f) }

// Raw strips the unit explicitly.
func (mb MegaBytes) Raw() float64 { return float64(mb) }

// Raw strips the unit explicitly.
func (c Cores) Raw() float64 { return float64(c) }

// Millis converts seconds to milliseconds.
func (s Seconds) Millis() Millis { return Millis(s * 1e3) }

// Seconds converts milliseconds to seconds.
func (m Millis) Seconds() Seconds { return Seconds(m / 1e3) }

// InWindow returns the expected number of arrivals in a window of length
// t at rate q — the dimensionless q·t product (Little's-law style count)
// that Eq. 7's V_u·QoS_t prewarm bound is built on.
func (q QPS) InWindow(t Seconds) float64 { return float64(q) * float64(t) }

// Period returns the inter-arrival period 1/q. It panics on a
// non-positive rate: a probing or sampling rate of zero has no period,
// and callers obtain q from validated configuration.
func (q QPS) Period() Seconds {
	if q <= 0 {
		panic("units: Period of non-positive QPS")
	}
	return Seconds(1 / float64(q))
}

// ServiceTime returns the mean time one container spends serving one
// query, 1/μ. It panics on a non-positive rate; μ is produced by the
// controller's own prediction pipeline, never taken from user input.
func (mu ServiceRate) ServiceTime() Seconds {
	if mu <= 0 {
		panic("units: ServiceTime of non-positive service rate")
	}
	return Seconds(1 / float64(mu))
}

// Capacity returns the aggregate throughput n·μ of n containers — the
// M/M/N system's saturation arrival rate.
func (mu ServiceRate) Capacity(n int) QPS { return QPS(float64(n) * float64(mu)) }

// Utilisation returns the offered load ρ·N = λ/μ in containers: how many
// containers the arrival rate keeps busy on average.
func (q QPS) Utilisation(mu ServiceRate) float64 { return float64(q) / float64(mu) }

// Scale multiplies a dimensioned quantity by a dimensionless factor
// without stripping its unit — margins, headrooms, EWMA blends.
func Scale[T ~float64](x T, factor float64) T { return T(float64(x) * factor) }

// Ratio returns the dimensionless quotient of two same-unit quantities.
// It is the sanctioned spelling for a/b where both carry the same unit
// (unitcheck flags the bare division, whose result Go would mistype as
// the operand unit).
func Ratio[T ~float64](num, den T) float64 { return float64(num) / float64(den) }

// Max returns the larger of two same-unit quantities.
func Max[T ~float64](a, b T) T {
	if a > b {
		return a
	}
	return b
}
