package metrics

import (
	"math"
	"testing"

	"amoeba/internal/stats"
)

func rec(b Backend, bd Breakdown) QueryRecord {
	return QueryRecord{Backend: b, Breakdown: bd}
}

func TestBreakdownTotal(t *testing.T) {
	b := Breakdown{Queue: 1, ColdStart: 2, Processing: 3, CodeLoad: 4, Exec: 5, Post: 6}
	if b.Total() != 21 {
		t.Errorf("Total = %v, want 21", b.Total())
	}
}

func TestCollectorQoSAccounting(t *testing.T) {
	c := NewCollector("svc", 1.0)
	// 19 fast queries, 1 slow: p95 sits right at the boundary region.
	for i := 0; i < 19; i++ {
		c.Observe(rec(BackendIaaS, Breakdown{Exec: 0.5}))
	}
	c.Observe(rec(BackendServerless, Breakdown{Exec: 2.0}))
	if c.Count() != 20 {
		t.Fatalf("Count = %d", c.Count())
	}
	if got := c.ViolationFraction(); got != 0.05 {
		t.Errorf("ViolationFraction = %v, want 0.05", got)
	}
	if c.BackendCount(BackendIaaS) != 19 || c.BackendCount(BackendServerless) != 1 {
		t.Error("backend counts wrong")
	}
	for _, b := range []Backend{-1, 2, 7} {
		if got := c.BackendCount(b); got != 0 {
			t.Errorf("BackendCount(%v) = %d, want 0 outside the closed set", b, got)
		}
	}
}

func TestCollectorQoSMet(t *testing.T) {
	c := NewCollector("svc", 1.0)
	for i := 0; i < 100; i++ {
		c.Observe(rec(BackendIaaS, Breakdown{Exec: 0.9}))
	}
	if !c.QoSMet() {
		t.Error("QoS should be met with all queries at 0.9")
	}
	for i := 0; i < 20; i++ { // 1/6 of queries slow: p95 now above target
		c.Observe(rec(BackendIaaS, Breakdown{Exec: 3}))
	}
	if c.QoSMet() {
		t.Errorf("QoS met with p95 = %v", c.P95())
	}
}

func TestCollectorMeanBreakdown(t *testing.T) {
	c := NewCollector("svc", 1.0)
	c.Observe(rec(BackendServerless, Breakdown{Processing: 0.1, Exec: 0.4, Post: 0.1}))
	c.Observe(rec(BackendServerless, Breakdown{Processing: 0.3, Exec: 0.6, Post: 0.1}))
	mb := c.MeanBreakdown()
	if math.Abs(mb.Processing-0.2) > 1e-12 || math.Abs(mb.Exec-0.5) > 1e-12 {
		t.Errorf("MeanBreakdown = %+v", mb)
	}
}

func TestCollectorNormalizedCDF(t *testing.T) {
	c := NewCollector("svc", 2.0)
	for i := 1; i <= 100; i++ {
		c.Observe(rec(BackendIaaS, Breakdown{Exec: float64(i) * 0.02}))
	}
	xs, fs := c.NormalizedCDF(10)
	if len(xs) != 10 {
		t.Fatalf("CDF length %d", len(xs))
	}
	// Latencies span 0.02..2.0 → normalized 0.01..1.0.
	if xs[len(xs)-1] > 1.001 {
		t.Errorf("max normalized latency %v, want <= 1", xs[len(xs)-1])
	}
	if fs[len(fs)-1] != 1 {
		t.Errorf("CDF endpoint %v", fs[len(fs)-1])
	}
}

// TestNormalizedCDFMatchesQuotientSample checks NormalizedCDF bit for
// bit against an oracle sample holding latency/QoSTarget for every
// query, the second sample the collector used to keep. The latencies
// repeat values (ties at CDF breakpoints) and the target is not a power
// of two, so the quotients are rounded.
func TestNormalizedCDFMatchesQuotientSample(t *testing.T) {
	const target = 0.3
	c := NewCollector("svc", target)
	oracle := stats.NewSample(0)
	for i := 0; i < 500; i++ {
		l := 0.05 + 0.01*float64((i*37)%61) // 61 distinct values, each repeated
		if i%7 == 0 {
			l = target // ties exactly at the target
		}
		c.Observe(rec(BackendIaaS, Breakdown{Exec: l}))
		oracle.Add(l / target)
	}
	for _, n := range []int{2, 40} {
		xs, fs := c.NormalizedCDF(n)
		wantXs, wantFs := oracle.CDF(n)
		if len(xs) != n || len(fs) != n {
			t.Fatalf("n=%d: lengths %d/%d", n, len(xs), len(fs))
		}
		for i := range wantXs {
			if math.Float64bits(xs[i]) != math.Float64bits(wantXs[i]) ||
				math.Float64bits(fs[i]) != math.Float64bits(wantFs[i]) {
				t.Errorf("n=%d point %d: (%v, %v), oracle (%v, %v)",
					n, i, xs[i], fs[i], wantXs[i], wantFs[i])
			}
		}
	}
}

func TestCollectorEmpty(t *testing.T) {
	c := NewCollector("svc", 1.0)
	if c.ViolationFraction() != 0 {
		t.Error("violation fraction of empty collector not 0")
	}
	if mb := c.MeanBreakdown(); mb != (Breakdown{}) {
		t.Error("mean breakdown of empty collector not zero")
	}
}

func TestCollectorInvalidTargetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero QoS target did not panic")
		}
	}()
	NewCollector("svc", 0)
}

func TestTimeline(t *testing.T) {
	var tl Timeline
	tl.RecordSwitch(10, BackendServerless, 5)
	tl.RecordSwitch(100, BackendIaaS, 80)
	tl.RecordSwitch(200, BackendServerless, 6)
	if tl.SwitchCount(BackendServerless) != 2 || tl.SwitchCount(BackendIaaS) != 1 {
		t.Error("switch counts wrong")
	}
	tl.RecordSnapshot(Snapshot{At: 50, Mode: BackendServerless, LoadQPS: 7})
	if len(tl.Snapshots) != 1 || tl.Snapshots[0].LoadQPS != 7 {
		t.Error("snapshot not recorded")
	}
}

func TestBackendString(t *testing.T) {
	if BackendIaaS.String() != "iaas" || BackendServerless.String() != "serverless" {
		t.Error("backend names wrong")
	}
}
