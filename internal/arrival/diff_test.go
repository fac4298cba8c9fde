package arrival

import (
	"fmt"
	"testing"

	"amoeba/internal/sim"
	"amoeba/internal/trace"
)

// refGen is the reference thinning generator: one kernel event per
// candidate, the accept test at fire time against the trace's rate, and
// the next candidate's Exp drawn after it. It is the straightforward
// Lewis & Shedler loop the lookahead and the rate envelope must match
// arrival for arrival.
type refGen struct {
	sim       *sim.Simulator
	rng       *sim.RNG
	trace     trace.Trace
	onArrival func(t sim.Time)
	count     uint64
	peak      float64
}

func newRef(s *sim.Simulator, tr trace.Trace, onArrival func(t sim.Time)) *refGen {
	return &refGen{sim: s, rng: s.RNG().Split(), trace: tr, onArrival: onArrival}
}

func (g *refGen) Start() {
	g.peak = g.trace.Peak()
	if g.peak <= 0 {
		return
	}
	g.sim.After(g.rng.Exp(g.peak), g.fire)
}

func (g *refGen) fire() {
	now := g.sim.Now()
	if g.rng.Float64() < g.trace.Rate(float64(now))/g.peak {
		g.count++
		g.onArrival(now)
	}
	g.sim.After(g.rng.Exp(g.peak), g.fire)
}

// rateCalls counts Rate calls. Embedding the interface hides any
// envelope methods of the inner trace, so the generator under test takes
// the plain path through it, as the benchmark's rate counter does.
type rateCalls struct {
	trace.Trace
	n int
}

func (r *rateCalls) Rate(t float64) float64 {
	r.n++
	return r.Trace.Rate(t)
}

// gen is the surface both generators share.
type gen interface {
	Start()
}

// diffCase drives one generator through horizon cuts and records every
// arrival time.
type diffCase struct {
	name  string
	trace func() trace.Trace
	cuts  []sim.Time // successive Run horizons
}

func (c diffCase) run(seed uint64, mk func(*sim.Simulator, trace.Trace, func(sim.Time)) gen, tr trace.Trace) (arrivals [][]sim.Time, count uint64) {
	s := sim.New(seed)
	var cur []sim.Time
	g := mk(s, tr, func(t sim.Time) {
		if t != s.Now() {
			panic(fmt.Sprintf("arrival at %v delivered at %v", t, s.Now()))
		}
		cur = append(cur, t)
	})
	g.Start()
	for _, h := range c.cuts {
		s.Run(h)
		arrivals = append(arrivals, cur)
		cur = cur[len(cur):len(cur):len(cur)]
	}
	switch g := g.(type) {
	case *Generator:
		count = g.Count()
	case *refGen:
		count = g.count
	}
	return arrivals, count
}

func diffCases() []diffCase {
	cuts := []sim.Time{0.5, 17.25, 60, 60, 61, 200, 451.5}
	diurnal := func(seed uint64, noise float64) func() trace.Trace {
		return func() trace.Trace {
			d := trace.NewDiurnal(60, 6, 150, seed)
			if noise >= 0 {
				d.NoiseAmp = noise
			}
			return d
		}
	}
	sampled := func() trace.Trace {
		s, err := trace.NewSampled([]float64{0, 40, 90, 91, 300}, []float64{2, 45, 0, 30, 12})
		if err != nil {
			panic(err)
		}
		return s
	}
	cases := []diffCase{
		{name: "constant", trace: func() trace.Trace { return trace.Constant{QPS: 30} }, cuts: cuts},
		{name: "step-up", trace: func() trace.Trace { return trace.Step{Before: 5, After: 50, At: 30} }, cuts: cuts},
		{name: "step-to-zero", trace: func() trace.Trace { return trace.Step{Before: 40, After: 0, At: 50} }, cuts: cuts},
		{name: "sampled", trace: sampled, cuts: cuts},
		{name: "diurnal-noise-0.3", trace: diurnal(5, 0.3), cuts: cuts},
		{name: "diurnal-noise-off", trace: diurnal(6, 0), cuts: cuts},
		{name: "diurnal-short-day", trace: func() trace.Trace { return trace.NewDiurnal(40, 1, 0.37, 8) }, cuts: cuts},
		{name: "diurnal-tiny-day", trace: func() trace.Trace { return trace.NewDiurnal(40, 1, 1e-3, 9) }, cuts: cuts},
		{name: "scaled-diurnal", trace: func() trace.Trace {
			return trace.Scaled{Inner: trace.NewDiurnal(60, 6, 150, 10), Factor: 0.5}
		}, cuts: cuts},
	}
	for _, seed := range []uint64{1, 2, 3, 4} {
		cases = append(cases, diffCase{name: fmt.Sprintf("diurnal-seed-%d", seed), trace: diurnal(seed, -1), cuts: cuts})
	}
	return cases
}

// TestGeneratorMatchesReference is the exactness contract of the
// thinning fast path: for every trace shape, the generator delivers the
// same arrivals at bit-identical times as the reference loop, between
// every pair of horizon cuts, and evaluates the rate of exactly as many
// candidates through a counting wrapper.
func TestGeneratorMatchesReference(t *testing.T) {
	mkGen := func(s *sim.Simulator, tr trace.Trace, f func(sim.Time)) gen { return New(s, tr, f) }
	mkRef := func(s *sim.Simulator, tr trace.Trace, f func(sim.Time)) gen { return newRef(s, tr, f) }
	for _, c := range diffCases() {
		for _, seed := range []uint64{7, 1 << 40} {
			want, wantN := c.run(seed, mkRef, c.trace())
			got, gotN := c.run(seed, mkGen, c.trace())
			if gotN != wantN {
				t.Errorf("%s/seed=%d: Count %d, reference %d", c.name, seed, gotN, wantN)
			}
			total := 0
			for i := range want {
				total += len(want[i])
				if len(got[i]) != len(want[i]) {
					t.Errorf("%s/seed=%d: %d arrivals up to cut %v, reference %d",
						c.name, seed, len(got[i]), c.cuts[i], len(want[i]))
					continue
				}
				for j := range want[i] {
					if got[i][j] != want[i][j] {
						t.Errorf("%s/seed=%d: arrival %d before cut %v at %v, reference %v",
							c.name, seed, j, c.cuts[i], got[i][j], want[i][j])
						break
					}
				}
			}
			if total == 0 {
				t.Errorf("%s/seed=%d: reference produced no arrivals", c.name, seed)
			}
			refCalls, genCalls := &rateCalls{Trace: c.trace()}, &rateCalls{Trace: c.trace()}
			c.run(seed, mkRef, refCalls)
			c.run(seed, mkGen, genCalls)
			if genCalls.n != refCalls.n {
				t.Errorf("%s/seed=%d: %d Rate calls, reference %d", c.name, seed, genCalls.n, refCalls.n)
			}
		}
	}
}
