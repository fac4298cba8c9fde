package serverless

import (
	"testing"
	"testing/quick"

	"amoeba/internal/arrival"
	"amoeba/internal/metrics"
	"amoeba/internal/sim"
	"amoeba/internal/trace"
	"amoeba/internal/workload"
)

// TestConservationProperty model-checks the platform's bookkeeping under
// randomised load: every submitted activation is exactly one of
// completed, queued, or in execution — none invented, none lost — and
// the container/memory accounts balance.
func TestConservationProperty(t *testing.T) {
	f := func(seed uint64, qpsRaw, nMaxRaw, horizonRaw uint8) bool {
		qps := 1 + float64(qpsRaw%40)
		nMax := 1 + int(nMaxRaw%12)
		horizon := 20 + float64(horizonRaw%60)

		s := sim.New(seed)
		cfg := DefaultConfig()
		p := New(s, cfg)

		prof := workload.Float()
		completed := 0
		p.Register(prof, func(metrics.QueryRecord) { completed++ }, WithNMax(nMax))

		submitted := 0
		// The load stops at the horizon, so a drain after it completes
		// everything in flight.
		gen := arrival.New(s, trace.Step{Before: qps, After: 0, At: horizon}, func(sim.Time) {
			submitted++
			p.Bind(prof.Name).Invoke()
		})
		gen.Start()
		s.Run(sim.Time(horizon))

		inflight := p.Inflight(prof.Name)
		if submitted != completed+inflight {
			t.Logf("seed=%d: submitted %d != completed %d + inflight %d",
				seed, submitted, completed, inflight)
			return false
		}
		// Container count within the cap; memory account matches.
		containers := p.fns[prof.Name].containers
		if containers > nMax {
			t.Logf("seed=%d: containers %d > nMax %d", seed, containers, nMax)
			return false
		}
		if p.memMB != float64(containers)*cfg.ContainerMemMB.Raw() {
			t.Logf("seed=%d: memory %v != containers %d × %v",
				seed, p.memMB, containers, cfg.ContainerMemMB)
			return false
		}
		// Drain: with arrivals stopped everything in flight completes.
		s.Run(sim.Time(horizon + 300))
		if p.Inflight(prof.Name) != 0 {
			t.Logf("seed=%d: %d activations stuck after drain", seed, p.Inflight(prof.Name))
			return false
		}
		if submitted != completed {
			t.Logf("seed=%d: post-drain conservation broken", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestLatencyDecompositionProperty: every record's components are
// non-negative and the total reconstructs from the parts.
func TestLatencyDecompositionProperty(t *testing.T) {
	s := sim.New(77)
	p := New(s, DefaultConfig())
	prof := workload.DD()
	bad, completed := 0, 0
	p.Register(prof, func(r metrics.QueryRecord) {
		completed++
		b := r.Breakdown
		for _, v := range []float64{b.Queue, b.ColdStart, b.Processing, b.CodeLoad, b.Exec, b.Post} {
			if v < 0 {
				bad++
			}
		}
		if b.Exec <= 0 {
			bad++ // a query that did no work
		}
		if r.Latency() < b.Exec {
			bad++
		}
	}, WithNMax(6))
	gen := arrival.New(s, trace.Constant{QPS: 25}, func(sim.Time) { p.Bind(prof.Name).Invoke() })
	gen.Start()
	s.Run(300)
	if bad != 0 {
		t.Fatalf("%d malformed breakdowns", bad)
	}
	if completed < 1000 {
		t.Fatalf("only %d completions", completed)
	}
}
