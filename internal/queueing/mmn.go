// Package queueing implements the M/M/N results the deployment controller
// uses as its discriminant function (§IV-A, Eq. 1–5) along with the
// container prewarm sizing rule (Eq. 7) and the monitor sample-period
// bound (Eq. 8).
//
// Model: Poisson arrivals at rate λ, N identical containers each with
// exponential service rate μ, one shared FIFO queue of infinite capacity.
package queueing

import (
	"fmt"
	"math"
)

// MMN describes an M/M/N system.
type MMN struct {
	Lambda float64 // arrival rate λ (queries/second)
	Mu     float64 // per-container service rate μ (queries/second)
	N      int     // number of containers
}

// Validate returns an error when the parameters are not a well-formed
// queueing system.
func (q MMN) Validate() error {
	if q.Lambda < 0 {
		return fmt.Errorf("queueing: negative lambda %v", q.Lambda)
	}
	if q.Mu <= 0 {
		return fmt.Errorf("queueing: non-positive mu %v", q.Mu)
	}
	if q.N <= 0 {
		return fmt.Errorf("queueing: non-positive N %d", q.N)
	}
	return nil
}

// Rho returns the utilisation ρ = λ/(Nμ).
func (q MMN) Rho() float64 { return q.Lambda / (float64(q.N) * q.Mu) }

// Stable reports whether the system has a steady state (ρ < 1).
func (q MMN) Stable() bool { return q.Rho() < 1 }

// Pi0 returns π₀, the steady-state probability of an empty system
// (Eq. 1's normalisation constant). Computed with running products to stay
// stable for large N. It panics if the system parameters are malformed
// (see Validate); validate user-supplied parameters before querying.
func (q MMN) Pi0() float64 {
	if err := q.Validate(); err != nil {
		panic(err)
	}
	rho := q.Rho()
	if rho >= 1 {
		return 0
	}
	a := q.Lambda / q.Mu // offered load n·ρ
	sum := 1.0           // k = 0 term
	term := 1.0
	for k := 1; k < q.N; k++ {
		term *= a / float64(k)
		sum += term
	}
	// (a^N / N!) / (1 - rho)
	term *= a / float64(q.N)
	sum += term / (1 - rho)
	return 1 / sum
}

// PiK returns π_k, the steady-state probability of exactly k queries in
// the system (Eq. 1). It panics if k is negative.
func (q MMN) PiK(k int) float64 {
	if k < 0 {
		panic("queueing: negative k")
	}
	pi0 := q.Pi0()
	if pi0 == 0 {
		return 0
	}
	a := q.Lambda / q.Mu
	if k < q.N {
		// (nρ)^k / k! · π₀ via running product.
		term := pi0
		for i := 1; i <= k; i++ {
			term *= a / float64(i)
		}
		return term
	}
	// k >= N: π_N · ρ^(k-N).
	piN := pi0
	for i := 1; i <= q.N; i++ {
		piN *= a / float64(i)
	}
	return piN * math.Pow(q.Rho(), float64(k-q.N))
}

// ErlangC returns the probability an arriving query must wait,
// P{W > 0} = π_N / (1 - ρ) (the complement of Eq. 2).
func (q MMN) ErlangC() float64 {
	rho := q.Rho()
	if rho >= 1 {
		return 1
	}
	return q.PiK(q.N) / (1 - rho)
}

// ResponseQuantile returns the r-quantile of the response time
// T = W + S approximated as the r-quantile of W plus the mean service
// time 1/μ — the decomposition the paper's Eq. 5 uses (T_D - 1/μ budget
// for waiting). It panics if r is outside (0,1).
func (q MMN) ResponseQuantile(r float64) float64 {
	if r <= 0 || r >= 1 {
		panic(fmt.Sprintf("queueing: quantile %v out of (0,1)", r))
	}
	if !q.Stable() {
		return math.Inf(1)
	}
	// Invert F_W(t) = r: if P{W=0} >= r the quantile of W is 0.
	c := q.ErlangC()
	if 1-c >= r {
		return 1 / q.Mu
	}
	// t = -ln((1-r)/C) / (Nμ(1-ρ)).
	t := -math.Log((1-r)/c) / (float64(q.N) * q.Mu * (1 - q.Rho()))
	return t + 1/q.Mu
}

// QoSSatisfied reports whether the r-quantile response time is within the
// target T_D.
func (q MMN) QoSSatisfied(targetTD, r float64) bool {
	return q.ResponseQuantile(r) <= targetTD
}
