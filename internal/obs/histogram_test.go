package obs

import (
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"testing"

	"amoeba/internal/sim"
	"amoeba/internal/units"
)

// TestHistogramPanicsOnBadShape covers every shape NewHistogram cannot
// represent. A NaN bound, an infinite hi and a hi/lo that overflows
// pass plain lo <= 0 and hi <= lo tests, and would get one octave.
func TestHistogramPanicsOnBadShape(t *testing.T) {
	for _, tc := range []struct {
		lo, hi float64
		sub    int
	}{
		{0, 1, 4}, {-1, 1, 4}, {1, 1, 4}, {2, 1, 4}, {1, 2, 0},
		{math.NaN(), 1, 4}, {1, math.NaN(), 4}, {1, math.Inf(1), 4},
		{5e-324, 1e300, 4},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v, %v, %d) did not panic", tc.lo, tc.hi, tc.sub)
				}
			}()
			NewHistogram(tc.lo, tc.hi, tc.sub)
		}()
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(1e-3, 100, 32)
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram has non-zero summary stats")
	}
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %v, want 0", q)
	}
}

func TestHistogramExactStats(t *testing.T) {
	h := NewHistogram(1e-3, 100, 32)
	vals := []float64{0.010, 0.020, 0.050, 1.5, 0.002}
	var sum float64
	for _, v := range vals {
		h.Observe(v)
		sum += v
	}
	if h.Count() != uint64(len(vals)) {
		t.Fatalf("Count = %d", h.Count())
	}
	if math.Abs(h.Sum()-sum) > 1e-12 {
		t.Fatalf("Sum = %v, want %v", h.Sum(), sum)
	}
	if h.Min() != 0.002 || h.Max() != 1.5 {
		t.Fatalf("Min/Max = %v/%v", h.Min(), h.Max())
	}
}

func TestHistogramDropsNaN(t *testing.T) {
	h := NewHistogram(1e-3, 100, 32)
	h.Observe(math.NaN())
	if h.Count() != 0 {
		t.Fatal("NaN was counted")
	}
}

func TestHistogramClampsOutOfRange(t *testing.T) {
	h := NewHistogram(0.001, 1, 8)
	h.Observe(1e-9) // below lo → bucket 0
	h.Observe(50)   // above hi → last bucket
	if h.Count() != 2 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Min() != 1e-9 || h.Max() != 50 {
		t.Fatalf("exact extremes lost: %v/%v", h.Min(), h.Max())
	}
	// Quantiles degrade gracefully: answers stay inside the exact
	// observed [Min, Max] even though both values fell outside [lo, hi).
	for _, q := range []float64{0, 0.5, 1} {
		got := h.Quantile(q)
		if got < h.Min() || got > h.Max() {
			t.Fatalf("Quantile(%v) = %v outside observed [%v, %v]", q, got, h.Min(), h.Max())
		}
	}
}

// TestHistogramIndexClampsOverflow: +Inf, MaxFloat64 and 1e306, for
// which v/lo overflows, land in the last bucket, as does every value
// from the top of the last octave up. hi itself lands in the last
// bucket when hi/lo is a power of two, and otherwise, with the value
// below it, in its own bucket of the last octave.
func TestHistogramIndexClampsOverflow(t *testing.T) {
	h := NewHistogram(latencyLo, latencyHi, latencySub)
	last := h.Buckets() - 1
	for _, v := range []float64{math.Inf(1), math.MaxFloat64, 1e306, 1e300, math.Ldexp(latencyLo, 17)} {
		if got := h.index(v); got != last {
			t.Errorf("index(%v) = %d, want the last bucket %d", v, got, last)
		}
	}
	// 100 s is 1e5 ms, in the last octave [2^16, 2^17) ms at 1e5/2^16 =
	// 1.526: sub-bucket 16 of 32.
	for _, v := range []float64{latencyHi, math.Nextafter(latencyHi, 0)} {
		if got, want := h.index(v), 16*latencySub+16; got != want {
			t.Errorf("index(%v) = %d, want %d", v, got, want)
		}
	}
	p := NewHistogram(1, 1024, 8)
	for _, v := range []float64{1024, math.Nextafter(1024, 0), math.Inf(1)} {
		if got, want := p.index(v), p.Buckets()-1; got != want {
			t.Errorf("1..1024: index(%v) = %d, want the last bucket %d", v, got, want)
		}
	}
	h.Observe(math.Inf(1))
	if bs := h.NonEmptyBuckets(); len(bs) != 1 || bs[0].Upper != h.upper(last) {
		t.Fatalf("+Inf observed into %+v, want only the last bucket", bs)
	}
}

// indexLog2Oracle is the bucket index as it was before the bit
// arithmetic: the octave from math.Log2 for every value. It sends a v
// whose v/lo overflows to bucket 0, which index no longer does, so
// indexChecker expects the last bucket for those.
func indexLog2Oracle(h *Histogram, v float64) int {
	if v < h.lo {
		return 0
	}
	oct := int(math.Floor(math.Log2(v / h.lo)))
	if oct < 0 {
		oct = 0
	}
	base := math.Ldexp(h.lo, oct)
	sb := int((v/base - 1) * float64(h.sub))
	if sb < 0 {
		sb = 0
	}
	if sb >= h.sub {
		sb = h.sub - 1
	}
	idx := oct*h.sub + sb
	if idx >= len(h.counts) {
		idx = len(h.counts) - 1
	}
	return idx
}

// indexShapes are the shapes the index is checked on: the latency
// shape, a power-of-two range, sub not a power of two, one bucket per
// octave, a subnormal lo and a range of 997 octaves.
var indexShapes = []struct {
	lo, hi float64
	sub    int
}{
	{latencyLo, latencyHi, latencySub},
	{1e-3, 1, 8},
	{0.05, 30, 7},
	{3e-7, 5e4, 10},
	{1, 1024, 1},
	{3e-320, 1e-300, 6},
	{1, 1e300, 3},
}

// indexChecker compares Histogram.index with the oracle and stops the
// test at the first difference.
type indexChecker struct {
	tb testing.TB
	h  *Histogram
	n  int
}

func (c *indexChecker) check(v float64) {
	if math.IsNaN(v) {
		return
	}
	want := indexLog2Oracle(c.h, v)
	if v >= c.h.lo && math.IsInf(v/c.h.lo, 1) {
		want = len(c.h.counts) - 1
	}
	c.n++
	if got := c.h.index(v); got != want {
		c.tb.Fatalf("shape lo=%v sub=%d octaves=%d: index(%v) = %d, the math.Log2 formula gives %d",
			c.h.lo, c.h.sub, c.h.octaves, v, got, want)
	}
}

// around checks the values within 64 ulps of x > 0.
func (c *indexChecker) around(x float64) {
	u := math.Float64bits(x)
	for d := uint64(0); d <= 64; d++ {
		c.check(math.Float64frombits(u + d))
		if d <= u {
			c.check(math.Float64frombits(u - d))
		}
	}
}

// TestHistogramIndexMatchesLog2: the bit-arithmetic index puts every
// value where the math.Log2 formula does, within 64 ulps of every
// bucket's lower bound, of every octave start, of hi and of the guard
// band's edges, and on random values and bit patterns, over every
// shape of indexShapes. Under the race detector the random sweeps take
// every twentieth value.
func TestHistogramIndexMatchesLog2(t *testing.T) {
	n := 500_000
	if raceEnabled {
		n /= 20
	}
	rng := rand.New(rand.NewPCG(0x4157, 28))
	total := 0
	for _, s := range indexShapes {
		h := NewHistogram(s.lo, s.hi, s.sub)
		c := &indexChecker{tb: t, h: h}
		for i := range h.counts {
			c.around(h.lower(i))
		}
		for k := 0; k <= h.octaves+1; k++ {
			base := math.Ldexp(h.lo, k)
			c.around(base)
			c.around(base * (1 + 0x1p-20))
			c.around(base * (2 - 0x1p-20))
		}
		c.around(s.hi)
		span := float64(h.octaves + 2)
		for i := 0; i < n; i++ {
			// Log-uniform from an octave below lo to one above the last.
			c.check(math.Ldexp(h.lo, -1) * math.Exp2(rng.Float64()*span))
			c.check(math.Float64frombits(rng.Uint64()))
		}
		total += c.n
	}
	t.Logf("%d values land in the math.Log2 formula's bucket", total)
}

// FuzzHistogramIndex compares index with the math.Log2 formula on one
// value in every shape of indexShapes.
func FuzzHistogramIndex(f *testing.F) {
	for _, v := range []float64{0, -1, 5e-324, latencyLo, 0.031999999999999994, 0.032,
		latencyHi, 1e306, math.MaxFloat64, math.Inf(1)} {
		f.Add(v)
	}
	hs := make([]*Histogram, len(indexShapes))
	for i, s := range indexShapes {
		hs[i] = NewHistogram(s.lo, s.hi, s.sub)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		for _, h := range hs {
			(&indexChecker{tb: t, h: h}).check(v)
		}
	})
}

func TestHistogramQuantilePanicsOutOfRange(t *testing.T) {
	h := NewHistogram(1e-3, 100, 32)
	h.Observe(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Quantile(1.5) did not panic")
		}
	}()
	h.Quantile(1.5)
}

// TestHistogramQuantileAccuracy checks the bounded-relative-error claim
// against exact order statistics on deterministic pseudo-random data.
func TestHistogramQuantileAccuracy(t *testing.T) {
	s := sim.New(42)
	rng := s.RNG()
	h := NewHistogram(1e-3, 100, 32)
	n := 20000
	vals := make([]float64, n)
	for i := range vals {
		// Log-uniform over [1ms, 10s): stresses every octave.
		v := 1e-3 * math.Pow(10, rng.Float64()*4)
		vals[i] = v
		h.Observe(v)
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		exact := vals[int(math.Ceil(q*float64(n)))-1]
		got := h.Quantile(q)
		relErr := math.Abs(got-exact) / exact
		// 1/sub = 3.1% bucket width; allow 2× for midpoint placement.
		if relErr > 2.0/32 {
			t.Errorf("q=%v: got %v, exact %v, rel err %.4f", q, got, exact, relErr)
		}
	}
}

func TestHistogramBounded(t *testing.T) {
	h := NewHistogram(1e-3, 100, 32)
	want := 17 * 32 // ceil(log2(1e5)) octaves × 32
	if h.Buckets() != want {
		t.Fatalf("Buckets = %d, want %d", h.Buckets(), want)
	}
	s := sim.New(7)
	rng := s.RNG()
	for i := 0; i < 100000; i++ {
		h.Observe(rng.Float64() * 10)
	}
	if h.Buckets() != want {
		t.Fatal("bucket count grew with observations")
	}
}

func TestNonEmptyBucketsOrderedAndComplete(t *testing.T) {
	h := NewHistogram(0.001, 1, 4)
	for _, v := range []float64{0.002, 0.002, 0.5, 0.03} {
		h.Observe(v)
	}
	bs := h.NonEmptyBuckets()
	var total uint64
	last := 0.0
	for _, b := range bs {
		if b.Upper <= last {
			t.Fatalf("buckets out of order: %v after %v", b.Upper, last)
		}
		last = b.Upper
		total += b.Count
	}
	if total != h.Count() {
		t.Fatalf("bucket counts sum to %d, Count is %d", total, h.Count())
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(2)
	if r.Counter("c") != c || c.Value() != 3 {
		t.Fatal("counter identity or value wrong")
	}
	g := r.Gauge("g")
	g.Set(1.5)
	if r.Gauge("g") != g || g.Value() != 1.5 {
		t.Fatal("gauge identity or value wrong")
	}
	h := r.Histogram("h", 1e-3, 1, 8)
	h.Observe(0.5)
	if r.Histogram("h", 1, 2, 4) != h {
		t.Fatal("histogram re-created despite existing name")
	}
}

func TestCounterPanicsOnNegativeAdd(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	NewRegistry().Counter("c").Add(-1)
}

func TestLabeledSortsKeys(t *testing.T) {
	got := Labeled("m", "z", "1", "a", "2")
	if got != `m{a="2",z="1"}` {
		t.Fatalf("Labeled = %s", got)
	}
	if Labeled("m") != "m" {
		t.Fatal("Labeled without pairs altered the name")
	}
}

func TestLabeledPanicsOnOddPairs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("odd pair count did not panic")
		}
	}()
	Labeled("m", "k")
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter(Labeled("amoeba_queries_total", "backend", "iaas")).Add(5)
	r.Counter(Labeled("amoeba_queries_total", "backend", "serverless")).Add(3)
	r.Gauge("amoeba_load_qps").Set(12.5)
	h := r.Histogram("amoeba_latency_seconds", 0.001, 10, 8)
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE amoeba_queries_total counter",
		`amoeba_queries_total{backend="iaas"} 5`,
		`amoeba_queries_total{backend="serverless"} 3`,
		"# TYPE amoeba_load_qps gauge",
		"amoeba_load_qps 12.5",
		"# TYPE amoeba_latency_seconds histogram",
		`amoeba_latency_seconds_bucket{le="+Inf"} 3`,
		"amoeba_latency_seconds_sum 2.1",
		"amoeba_latency_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// TYPE header appears once per base name even with two series.
	if strings.Count(out, "# TYPE amoeba_queries_total") != 1 {
		t.Fatalf("duplicated TYPE header:\n%s", out)
	}
	// Cumulative le-buckets are non-decreasing.
	if !lessInOutput(out, `amoeba_latency_seconds_bucket{le=`) {
		t.Fatalf("le buckets not cumulative:\n%s", out)
	}
	// Deterministic: rendering twice yields identical bytes.
	var b2 strings.Builder
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != out {
		t.Fatal("exposition is not deterministic across renders")
	}
}

// lessInOutput checks lines with the given prefix have non-decreasing
// trailing integer values.
func lessInOutput(out, prefix string) bool {
	last := -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		fields := strings.Fields(line)
		v := 0
		for _, ch := range fields[len(fields)-1] {
			v = v*10 + int(ch-'0')
		}
		if v < last {
			return false
		}
		last = v
	}
	return true
}

func TestLabeledHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(Labeled("lat", "svc", "dd"), 0.001, 1, 4)
	h.Observe(0.01)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Labelled histogram buckets must merge le into the existing block.
	if !strings.Contains(out, `lat_bucket{svc="dd",le="+Inf"} 1`) {
		t.Fatalf("labelled le merge wrong:\n%s", out)
	}
	if !strings.Contains(out, `lat_sum{svc="dd"} 0.01`) {
		t.Fatalf("labelled sum wrong:\n%s", out)
	}
}

func TestMetricsSink(t *testing.T) {
	reg := NewRegistry()
	b := NewBus()
	b.Attach(NewMetricsSink(reg))
	b.Emit(&QueryComplete{At: 1, Service: "dd", Backend: "iaas", Latency: 0.2})
	b.Emit(&QueryComplete{At: 2, Service: "dd", Backend: "serverless", Latency: 0.4})
	b.Emit(&QueryComplete{At: 2, Service: "float", Backend: "serverless", Latency: 0.3})
	b.Emit(&ColdStart{At: 3, Service: "dd", Delay: 0.9, Prewarm: true})
	b.Emit(&ColdStart{At: 4, Service: "dd", Delay: 1.1})
	b.Emit(&DecisionEvent{At: 5, Service: "dd", Verdict: "stay-iaas",
		LoadQPS: 10, AdmissibleQPS: 20, Mu: 3, Pressure: [3]float64{0.1, 0.2, 0.3}})
	b.Emit(&SwitchSpan{At: 6, Service: "dd", To: "serverless", Start: 4, End: 6})
	b.Emit(&SwitchSpan{At: 7, Service: "dd", To: "iaas", Start: 6, End: 7, Aborted: true})
	b.Emit(&HeartbeatSample{At: 8, Service: "dd"})
	b.Emit(&MeterSample{At: 9, Latency: [3]units.Seconds{0.01, 0.02, 0.03},
		Pressure: [3]float64{0.5, 0.6, 0.7}})
	// Phase i is seen i+1 times on dd and once on a second service, so a
	// fold that files one phase or service under another miscounts.
	phases := []Phase{PhaseQueueWait, PhaseColdStart, PhaseExec, PhaseDrain, PhaseRetry}
	for i, p := range phases {
		d := units.Seconds(0.1 * float64(i+1))
		for j := 0; j <= i; j++ {
			b.Emit(&PhaseSpan{At: 10, Phase: p, Service: "dd", Backend: "iaas", Start: 10 - d, End: 10})
		}
		b.Emit(&PhaseSpan{At: 10, Phase: p, Service: "float", Start: 10 - 2*d, End: 10})
	}

	for _, tc := range []struct {
		svc, backend string
		want         uint64
	}{{"dd", "iaas", 1}, {"dd", "serverless", 1}, {"float", "iaas", 0}, {"float", "serverless", 1}} {
		if got := reg.Counter(Labeled("amoeba_queries_total", "service", tc.svc, "backend", tc.backend)).Value(); got != tc.want {
			t.Fatalf("%s %s queries = %d, want %d", tc.svc, tc.backend, got, tc.want)
		}
	}
	if got := reg.Histogram(Labeled("amoeba_latency_seconds", "service", "dd"),
		latencyLo, latencyHi, latencySub).Count(); got != 2 {
		t.Fatalf("latency observations = %d, want 2", got)
	}
	for i, p := range phases {
		d := 0.1 * float64(i+1)
		for _, tc := range []struct {
			svc  string
			n    uint64
			want float64
		}{{"dd", uint64(i + 1), d}, {"float", 1, 2 * d}} {
			h := reg.Histogram(Labeled("amoeba_phase_seconds", "service", tc.svc, "phase", string(p)),
				latencyLo, latencyHi, latencySub)
			if h.Count() != tc.n || math.Abs(h.Max()-tc.want) > 1e-12 {
				t.Fatalf("%s %s phase: %d observations, max %v; want %d, %v",
					tc.svc, p, h.Count(), h.Max(), tc.n, tc.want)
			}
		}
	}
	if got := reg.Counter(Labeled("amoeba_cold_starts_total", "service", "dd", "trigger", "prewarm")).Value(); got != 1 {
		t.Fatalf("prewarm cold starts = %d", got)
	}
	if got := reg.Counter(Labeled("amoeba_decisions_total", "service", "dd", "verdict", "stay-iaas")).Value(); got != 1 {
		t.Fatalf("decisions = %d", got)
	}
	if got := reg.Gauge(Labeled("amoeba_pressure", "resource", "net")).Value(); got != 0.3 {
		t.Fatalf("net pressure gauge = %v", got)
	}
	if got := reg.Counter(Labeled("amoeba_switches_total", "service", "dd", "to", "serverless")).Value(); got != 1 {
		t.Fatalf("switches = %d", got)
	}
	// Aborted switch counted but not timed.
	if got := reg.Histogram(Labeled("amoeba_switch_duration_seconds", "to", "serverless"),
		latencyLo, latencyHi, latencySub).Count(); got != 1 {
		t.Fatalf("switch durations = %d", got)
	}
	if got := reg.Gauge(Labeled("amoeba_meter_pressure", "meter", "cpu")).Value(); got != 0.5 {
		t.Fatalf("meter pressure = %v", got)
	}
}

// TestMetricsSinkPanicsOutsideTaxonomy: Consume panics on an event kind
// outside the closed taxonomy and on a phase outside the closed set.
func TestMetricsSinkPanicsOutsideTaxonomy(t *testing.T) {
	for _, ev := range []Event{
		foreignEvent{},
		&PhaseSpan{At: 1, Phase: "boot", Service: "dd", Start: 0, End: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Consume(%#v) did not panic", ev)
				}
			}()
			NewMetricsSink(NewRegistry()).Consume(ev)
		}()
	}
}
