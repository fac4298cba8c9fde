package metrics

import (
	"math"
	"testing"
)

func TestWindowedViolationsBuckets(t *testing.T) {
	w := NewWindowedViolations(10, 1.0)
	// Window [0,10): 3 fast, 1 slow.
	for i := 0; i < 3; i++ {
		w.Observe(2, rec(BackendServerless, Breakdown{Exec: 0.5}))
	}
	w.Observe(5, rec(BackendServerless, Breakdown{Exec: 2.0}))
	// Window [10,20): all slow.
	for i := 0; i < 2; i++ {
		w.Observe(15, rec(BackendServerless, Breakdown{Exec: 3.0}))
	}
	ws := w.Windows(25)
	if len(ws) != 2 {
		t.Fatalf("%d windows, want 2", len(ws))
	}
	if ws[0].Queries != 4 || ws[0].Violations != 1 {
		t.Errorf("window 0 = %+v", ws[0])
	}
	if math.Abs(ws[0].Rate()-0.25) > 1e-12 {
		t.Errorf("window 0 rate %v", ws[0].Rate())
	}
	if ws[1].Start != 10 || ws[1].Rate() != 1.0 {
		t.Errorf("window 1 = %+v, want start 10 and rate 1", ws[1])
	}
}

type timedQuery struct{ at, latency float64 }

// checkWindows feeds qs to a tracker with 5 s windows and a 1 s target
// and asserts every window closed by t=30 exactly.
func checkWindows(t *testing.T, qs []timedQuery, want []ViolationWindow) {
	t.Helper()
	w := NewWindowedViolations(5, 1.0)
	for _, q := range qs {
		w.Observe(q.at, rec(BackendIaaS, Breakdown{Exec: q.latency}))
	}
	ws := w.Windows(30)
	if len(ws) != len(want) {
		t.Fatalf("%d windows, want %d", len(ws), len(want))
	}
	for i := range ws {
		if ws[i] != want[i] {
			t.Errorf("window %d = %+v, want %+v", i, ws[i], want[i])
		}
	}
}

// TestWindowedViolationsEmptyGaps pins every window around a gap between
// two fast queries: the query-free windows close empty.
func TestWindowedViolationsEmptyGaps(t *testing.T) {
	checkWindows(t, []timedQuery{{1, 0.1}, {22, 0.1}},
		[]ViolationWindow{{0, 1, 0}, {5, 0, 0}, {10, 0, 0}, {15, 0, 0}, {20, 1, 0}, {25, 0, 0}})
}

// TestWindowP95EmptyWindow pins every window around a gap between a
// violating query and a fast one: the query-free windows close with zero
// tallies, and the violation stays in the first window.
func TestWindowP95EmptyWindow(t *testing.T) {
	checkWindows(t, []timedQuery{{1, 3.0}, {26, 0.4}},
		[]ViolationWindow{{0, 1, 1}, {5, 0, 0}, {10, 0, 0}, {15, 0, 0}, {20, 0, 0}, {25, 1, 0}})
}

func TestWindowedViolationsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid tracker did not panic")
		}
	}()
	NewWindowedViolations(0, 1)
}
