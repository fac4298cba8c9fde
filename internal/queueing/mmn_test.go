package queueing

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"amoeba/internal/sim"
	"amoeba/internal/stats"
)

func TestMM1ReducesToTextbook(t *testing.T) {
	// For N=1 the system is M/M/1: π₀ = 1-ρ, π_k = (1-ρ)ρ^k,
	// E[W] = ρ/(μ-λ).
	q := MMN{Lambda: 0.6, Mu: 1.0, N: 1}
	rho := q.Rho()
	if math.Abs(q.Pi0()-(1-rho)) > 1e-12 {
		t.Errorf("pi0 = %v, want %v", q.Pi0(), 1-rho)
	}
	for k := 0; k <= 5; k++ {
		want := (1 - rho) * math.Pow(rho, float64(k))
		if math.Abs(q.PiK(k)-want) > 1e-12 {
			t.Errorf("pi%d = %v, want %v", k, q.PiK(k), want)
		}
	}
	if math.Abs(q.ErlangC()-rho) > 1e-12 {
		t.Errorf("ErlangC = %v, want rho=%v", q.ErlangC(), rho)
	}
	wantW := rho / (q.Mu - q.Lambda)
	if math.Abs(q.MeanWait()-wantW) > 1e-12 {
		t.Errorf("MeanWait = %v, want %v", q.MeanWait(), wantW)
	}
}

func TestErlangCKnownValue(t *testing.T) {
	// Classic table value: N=2, offered load a=1 (rho=0.5) -> C = 1/3.
	q := MMN{Lambda: 1, Mu: 1, N: 2}
	if math.Abs(q.ErlangC()-1.0/3.0) > 1e-12 {
		t.Errorf("ErlangC = %v, want 1/3", q.ErlangC())
	}
}

func TestPiDistributionSumsToOne(t *testing.T) {
	q := MMN{Lambda: 7, Mu: 1, N: 10}
	sum := 0.0
	for k := 0; k < 500; k++ {
		sum += q.PiK(k)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("sum pi_k = %v, want 1", sum)
	}
}

func TestWaitCDFProperties(t *testing.T) {
	q := MMN{Lambda: 8, Mu: 1, N: 10}
	if got := q.WaitCDF(0); math.Abs(got-(1-q.ErlangC())) > 1e-12 {
		t.Errorf("F_W(0) = %v, want P{W=0} = %v", got, 1-q.ErlangC())
	}
	prev := -1.0
	for _, tt := range []float64{0, 0.1, 0.5, 1, 2, 5, 10} {
		f := q.WaitCDF(tt)
		if f < prev {
			t.Fatalf("WaitCDF not monotone at t=%v", tt)
		}
		prev = f
	}
	if f := q.WaitCDF(100); math.Abs(f-1) > 1e-9 {
		t.Errorf("F_W(100) = %v, want ~1", f)
	}
	if q.WaitCDF(-1) != 0 {
		t.Error("F_W(-1) != 0")
	}
}

func TestUnstableSystem(t *testing.T) {
	q := MMN{Lambda: 20, Mu: 1, N: 10}
	if q.Stable() {
		t.Error("rho=2 reported stable")
	}
	if q.Pi0() != 0 {
		t.Errorf("pi0 of unstable system = %v", q.Pi0())
	}
	if !math.IsInf(q.MeanWait(), 1) {
		t.Errorf("MeanWait of unstable system = %v", q.MeanWait())
	}
	if !math.IsInf(q.ResponseQuantile(0.95), 1) {
		t.Error("quantile of unstable system should be +Inf")
	}
}

func TestResponseQuantileMonotoneInLambda(t *testing.T) {
	prev := 0.0
	for _, lam := range []float64{1, 3, 5, 7, 9, 9.5, 9.9} {
		q := MMN{Lambda: lam, Mu: 1, N: 10}
		v := q.ResponseQuantile(0.95)
		if v < prev {
			t.Fatalf("quantile not monotone in lambda at %v: %v < %v", lam, v, prev)
		}
		prev = v
	}
}

func TestResponseQuantileLowLoadIsServiceTime(t *testing.T) {
	// At very low load P{W=0} > r, so the r-quantile is just 1/mu.
	q := MMN{Lambda: 0.01, Mu: 2, N: 10}
	if got := q.ResponseQuantile(0.95); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("quantile = %v, want 0.5", got)
	}
}

// TestWaitCDFAgainstSimulation cross-validates the analytic waiting-time
// distribution against a discrete-event M/M/N simulation.
func TestWaitCDFAgainstSimulation(t *testing.T) {
	q := MMN{Lambda: 12, Mu: 1, N: 16}
	s := sim.New(99)
	rng := s.RNG()

	busy := 0
	var queue []float64 // arrival times of waiting queries
	waits := stats.NewSample(20000)

	var depart func()
	start := func(arrivedAt float64) {
		busy++
		waits.Add(float64(s.Now()) - arrivedAt)
		s.After(rng.Exp(q.Mu), depart)
	}
	depart = func() {
		busy--
		if len(queue) > 0 {
			next := queue[0]
			queue = queue[1:]
			start(next)
		}
	}
	var arrive func()
	arrive = func() {
		if waits.Len() < 20000 {
			s.After(rng.Exp(q.Lambda), arrive)
		}
		if busy < q.N {
			start(float64(s.Now()))
		} else {
			queue = append(queue, float64(s.Now()))
		}
	}
	s.After(rng.Exp(q.Lambda), arrive)
	s.Run(1e9)

	// Discard warmup. Values is sorted, so the waits at or below t are a
	// prefix.
	vals := waits.Values()
	warm := vals[len(vals)/10:]

	for _, tt := range []float64{0.05, 0.2, 0.5, 1.0} {
		analytic := q.WaitCDF(tt)
		empirical := float64(sort.SearchFloat64s(warm, math.Nextafter(tt, math.Inf(1)))) / float64(len(warm))
		if math.Abs(analytic-empirical) > 0.03 {
			t.Errorf("F_W(%v): analytic %v vs simulated %v", tt, analytic, empirical)
		}
	}
}

func TestValidate(t *testing.T) {
	bad := []MMN{
		{Lambda: -1, Mu: 1, N: 1},
		{Lambda: 1, Mu: 0, N: 1},
		{Lambda: 1, Mu: 1, N: 0},
	}
	for _, q := range bad {
		if q.Validate() == nil {
			t.Errorf("Validate(%+v) = nil, want error", q)
		}
	}
	if (MMN{Lambda: 1, Mu: 1, N: 1}).Validate() != nil {
		t.Error("valid system rejected")
	}
}

func TestPiKPropertyNonNegative(t *testing.T) {
	f := func(lamRaw, muRaw uint8, nRaw, kRaw uint8) bool {
		mu := float64(muRaw%20) + 1
		n := int(nRaw%20) + 1
		lam := float64(lamRaw%100) / 101 * mu * float64(n) // keep stable
		q := MMN{Lambda: lam, Mu: mu, N: n}
		p := q.PiK(int(kRaw % 40))
		return p >= 0 && p <= 1 && !math.IsNaN(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
