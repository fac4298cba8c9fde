package queueing

import "math"

// WaitCDF and MeanWait are Eq. 4's waiting-time distribution and its
// mean in closed form, the distribution ResponseQuantile inverts. The
// tests check Eq. 4 through them: against the M/M/1 textbook values and
// against a simulated M/M/N queue.

// WaitCDF returns F_W(t) = P{W <= t}, the waiting-time distribution of
// Eq. 4: 1 - π_N/(1-ρ) · e^{-Nμ(1-ρ)t}.
func (q MMN) WaitCDF(t float64) float64 {
	if t < 0 {
		return 0
	}
	rho := q.Rho()
	if rho >= 1 {
		return 0
	}
	return 1 - q.ErlangC()*math.Exp(-float64(q.N)*q.Mu*(1-rho)*t)
}

// MeanWait returns E[W] = C(N, λ/μ) / (Nμ - λ).
func (q MMN) MeanWait() float64 {
	if !q.Stable() {
		return math.Inf(1)
	}
	return q.ErlangC() / (float64(q.N)*q.Mu - q.Lambda)
}
