package arrival

import (
	"math"
	"testing"

	"amoeba/internal/sim"
	"amoeba/internal/trace"
)

func TestPoissonRateMatchesConstantTrace(t *testing.T) {
	s := sim.New(1)
	var n int
	g := New(s, trace.Constant{QPS: 50}, func(sim.Time) { n++ })
	g.Start()
	s.Run(1000)
	want := 50_000.0
	if math.Abs(float64(n)-want)/want > 0.02 {
		t.Fatalf("got %d arrivals over 1000s at 50 QPS, want ~%v", n, want)
	}
	if g.Count() != uint64(n) {
		t.Errorf("Count = %d, callback fired %d times", g.Count(), n)
	}
}

func TestThinningTracksTimeVaryingRate(t *testing.T) {
	s := sim.New(2)
	var early, late int
	g := New(s, trace.Step{Before: 10, After: 100, At: 500}, func(tt sim.Time) {
		if tt < 500 {
			early++
		} else {
			late++
		}
	})
	g.Start()
	s.Run(1000)
	// Expect ~5000 before, ~50000 after.
	if math.Abs(float64(early)-5000) > 400 {
		t.Errorf("early arrivals %d, want ~5000", early)
	}
	if math.Abs(float64(late)-50000) > 1500 {
		t.Errorf("late arrivals %d, want ~50000", late)
	}
}

func TestInterarrivalsExponential(t *testing.T) {
	// For a constant-rate process the interarrival CV must be ~1.
	s := sim.New(3)
	var prev float64
	var diffs []float64
	g := New(s, trace.Constant{QPS: 20}, func(tt sim.Time) {
		diffs = append(diffs, float64(tt)-prev)
		prev = float64(tt)
	})
	g.Start()
	s.Run(2000)
	mean, m2 := 0.0, 0.0
	for _, d := range diffs {
		mean += d
	}
	mean /= float64(len(diffs))
	for _, d := range diffs {
		m2 += (d - mean) * (d - mean)
	}
	cv := math.Sqrt(m2/float64(len(diffs)-1)) / mean
	if math.Abs(cv-1) > 0.05 {
		t.Fatalf("interarrival CV = %v, want ~1 (exponential)", cv)
	}
}

func TestZeroTraceGeneratesNothing(t *testing.T) {
	s := sim.New(5)
	g := New(s, trace.Constant{QPS: 0}, func(sim.Time) { t.Error("arrival from zero trace") })
	g.Start()
	s.Run(100)
	if g.Count() != 0 {
		t.Errorf("Count = %d", g.Count())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		s := sim.New(42)
		var times []float64
		g := New(s, trace.Constant{QPS: 10}, func(tt sim.Time) { times = append(times, float64(tt)) })
		g.Start()
		s.Run(50)
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestNilCallbackPanics(t *testing.T) {
	s := sim.New(1)
	defer func() {
		if recover() == nil {
			t.Error("nil callback did not panic")
		}
	}()
	New(s, trace.Constant{QPS: 1}, nil)
}

// TestCandidateStreamMatchesDirectDraws checks a generator's candidate
// stream against a twin RNG drawing each candidate directly, Exp(peak)
// then Float64, bit for bit, over several of the stream's batches and
// several seeds and peaks.
func TestCandidateStreamMatchesDirectDraws(t *testing.T) {
	for _, seed := range []uint64{1, 42, 0xA0EBA, 1<<63 + 5} {
		for _, peak := range []float64{0.2, 50, 1234.5} {
			s := sim.NewStream(sim.NewRNG(seed), candidates(peak))
			twin := sim.NewRNG(seed)
			for i := 0; i < 2000; i++ {
				gap, u := s.Next(), s.Next()
				wantGap := twin.Exp(peak)
				wantU := twin.Float64()
				if math.Float64bits(gap) != math.Float64bits(wantGap) || math.Float64bits(u) != math.Float64bits(wantU) {
					t.Fatalf("seed %#x, peak %v, candidate %d: stream gives (%v, %v), direct draws (%v, %v)",
						seed, peak, i, gap, u, wantGap, wantU)
				}
			}
		}
	}
}

// TestZeroAllocFire asserts the steady-state thinning loop — accept
// test, arrival callback, lookahead and reschedule through the one bound
// fire method — allocates nothing once the kernel's slab is warm, on the
// plain path (a constant trace) and on the envelope path (a diurnal one).
//
//amoeba:alloctest arrival.Generator.fire arrival.Generator.lookahead arrival.Generator.accept
func TestZeroAllocFire(t *testing.T) {
	for _, tr := range []trace.Trace{
		trace.Constant{QPS: 200},
		trace.NewDiurnal(400, 40, 120, 6),
	} {
		s := sim.New(6)
		g := New(s, tr, func(sim.Time) {})
		g.Start()
		s.Run(50) // warm: slab, free list and heap at steady-state capacity

		horizon := s.Now()
		allocs := testing.AllocsPerRun(100, func() {
			horizon += 5
			s.Run(horizon)
		})
		if allocs != 0 {
			t.Errorf("%T: arrival candidates allocate %.3f objects per 5s batch, want 0", tr, allocs)
		}
		if g.Count() == 0 {
			t.Fatalf("%T: generator produced no arrivals", tr)
		}
	}
}

// TestEnvelopeBracketsRate checks the envelope's one obligation densely:
// lo <= Rate(t)/peak <= hi for the bin of every t, at a million random
// times and at every bin edge, over diurnal curves with default, strong
// and no noise, a noise amplitude big enough to clip the rate at zero,
// and periods from a millisecond to a day.
func TestEnvelopeBracketsRate(t *testing.T) {
	curve := func(peak, trough, day float64, seed uint64, noise float64) *trace.Diurnal {
		d := trace.NewDiurnal(peak, trough, day, seed)
		if noise >= 0 {
			d.NoiseAmp = noise
		}
		return d
	}
	curves := []*trace.Diurnal{
		curve(55, 11, 86400, 1, -1),
		curve(60, 6, 150, 5, 0.3),
		curve(40, 1, 900, 6, 0),
		curve(80, 20, 3600, 7, 2.5),
		curve(40, 1, 1e-3, 9, -1),
	}
	rng := sim.NewRNG(13)
	const draws = 1 << 20
	for i, d := range curves {
		peak := d.Peak()
		env, period := envelope(d, peak)
		if env == nil {
			t.Fatalf("curve %d: no envelope for a diurnal trace", i)
		}
		check := func(tt float64) {
			y := tt / period
			b := env[int((y-math.Floor(y))*envelopeBins)&(envelopeBins-1)]
			if r := d.Rate(tt) / peak; r < b.lo || r > b.hi {
				t.Fatalf("curve %d: Rate(%v)/peak = %v outside [%v, %v]", i, tt, r, b.lo, b.hi)
			}
		}
		for k := 0; k < draws/len(curves); k++ {
			check(rng.Uniform(0, 40*period))
		}
		for k := 0; k <= 3*envelopeBins; k++ {
			edge := float64(k) * period / envelopeBins
			check(edge)
			check(math.Nextafter(edge, math.Inf(1)))
			if edge > 0 {
				check(math.Nextafter(edge, 0))
			}
		}
	}
}

// TestEnvelopeOnlyForPeriodicTraces pins which traces take the fast
// path: a diurnal curve does; constant, sampled and wrapped traces, and
// a diurnal curve behind an embedding wrapper, keep calling Rate.
func TestEnvelopeOnlyForPeriodicTraces(t *testing.T) {
	d := trace.NewDiurnal(10, 2, 100, 1)
	if env, _ := envelope(d, d.Peak()); env == nil {
		t.Error("diurnal trace built no envelope")
	}
	sampled, err := trace.NewSampled([]float64{0, 1}, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []trace.Trace{
		trace.Constant{QPS: 3}, sampled, trace.Scaled{Inner: d, Factor: 2}, &rateCalls{Trace: d},
	} {
		if env, _ := envelope(tr, tr.Peak()); env != nil {
			t.Errorf("%T built an envelope", tr)
		}
	}
	broken := trace.NewDiurnal(10, 2, 100, 1)
	broken.DayLength = 0
	if env, _ := envelope(broken, 12); env != nil {
		t.Error("zero period built an envelope")
	}
}

// TestStartTwiceIsNoop pins that a second Start does not open a second
// candidate stream.
func TestStartTwiceIsNoop(t *testing.T) {
	s := sim.New(8)
	var n int
	g := New(s, trace.Constant{QPS: 10}, func(sim.Time) { n++ })
	g.Start()
	g.Start()
	s.Run(1000)
	if n < 9000 || n > 11000 {
		t.Fatalf("%d arrivals over 1000s at 10 QPS after two Starts, want ~10000", n)
	}
}

// BenchmarkArrivalDiurnal measures thinning throughput on a diurnal
// trace: one op is one simulated second at a 1000 QPS peak, and
// candidates/s is the peak candidate rate per host second. The plain
// sub-benchmark hides the envelope behind a wrapper, so it calls Rate for
// every candidate.
func BenchmarkArrivalDiurnal(b *testing.B) {
	for _, mode := range []string{"envelope", "plain"} {
		b.Run(mode, func(b *testing.B) {
			var tr trace.Trace = trace.NewDiurnal(1000, 200, 3600, 1)
			if mode == "plain" {
				tr = struct{ trace.Trace }{tr}
			}
			s := sim.New(1)
			g := New(s, tr, func(sim.Time) {})
			g.Start()
			s.Run(1)
			b.ReportAllocs()
			b.ResetTimer()
			horizon := s.Now()
			for i := 0; i < b.N; i++ {
				horizon++
				s.Run(horizon)
			}
			b.ReportMetric(g.peak*float64(b.N)/b.Elapsed().Seconds(), "candidates/s")
		})
	}
}
