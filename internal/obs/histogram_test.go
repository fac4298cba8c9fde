package obs

import (
	"math"
	"sort"
	"strings"
	"testing"

	"amoeba/internal/sim"
	"amoeba/internal/units"
)

func TestHistogramPanicsOnBadShape(t *testing.T) {
	for _, tc := range []struct {
		lo, hi float64
		sub    int
	}{
		{0, 1, 4}, {-1, 1, 4}, {1, 1, 4}, {2, 1, 4}, {1, 2, 0},
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
	b.Emit(&ColdStart{At: 3, Service: "dd", Delay: 0.9, Prewarm: true})
	b.Emit(&ColdStart{At: 4, Service: "dd", Delay: 1.1})
	b.Emit(&DecisionEvent{At: 5, Service: "dd", Verdict: "stay-iaas",
		LoadQPS: 10, AdmissibleQPS: 20, Mu: 3, Pressure: [3]float64{0.1, 0.2, 0.3}})
	b.Emit(&SwitchSpan{At: 6, Service: "dd", To: "serverless", Start: 4, End: 6})
	b.Emit(&SwitchSpan{At: 7, Service: "dd", To: "iaas", Start: 6, End: 7, Aborted: true})
	b.Emit(&HeartbeatSample{At: 8, Service: "dd"})
	b.Emit(&MeterSample{At: 9, Latency: [3]units.Seconds{0.01, 0.02, 0.03},
		Pressure: [3]float64{0.5, 0.6, 0.7}})

	if got := reg.Counter(Labeled("amoeba_queries_total", "service", "dd", "backend", "iaas")).Value(); got != 1 {
		t.Fatalf("iaas queries = %d", got)
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
