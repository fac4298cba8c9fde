package metrics

import "testing"

func TestBackendStringOutOfRange(t *testing.T) {
	if got := Backend(7).String(); got != "Backend(7)" {
		t.Errorf("Backend(7).String() = %q", got)
	}
	if got := Backend(-1).String(); got != "Backend(-1)" {
		t.Errorf("Backend(-1).String() = %q", got)
	}
}

func TestSwitchCountEmptyTimeline(t *testing.T) {
	var tl Timeline
	if tl.SwitchCount(BackendIaaS) != 0 || tl.SwitchCount(BackendServerless) != 0 {
		t.Error("empty timeline has non-zero switch counts")
	}
}

func TestSwitchCountOneSidedTimeline(t *testing.T) {
	var tl Timeline
	tl.RecordSwitch(10, BackendServerless, 5)
	tl.RecordSwitch(20, BackendServerless, 6)
	tl.RecordSwitch(30, BackendServerless, 7)
	if got := tl.SwitchCount(BackendServerless); got != 3 {
		t.Errorf("SwitchCount(serverless) = %d, want 3", got)
	}
	if got := tl.SwitchCount(BackendIaaS); got != 0 {
		t.Errorf("SwitchCount(iaas) = %d, want 0", got)
	}
}

// TestWindowedViolationsExactBoundary pins the half-open window
// convention: an observation at exactly start+window belongs to the NEXT
// window, and finalising at exactly a boundary closes the window ending
// there.
func TestWindowedViolationsExactBoundary(t *testing.T) {
	w := NewWindowedViolations(10, 1.0)
	w.Observe(0, rec(BackendIaaS, Breakdown{Exec: 0.5}))  // [0,10)
	w.Observe(10, rec(BackendIaaS, Breakdown{Exec: 2.0})) // [10,20), violating

	ws := w.Windows(10)
	if len(ws) != 1 {
		t.Fatalf("Windows(10) closed %d windows, want 1", len(ws))
	}
	if ws[0].Start != 0 || ws[0].Queries != 1 || ws[0].Violations != 0 {
		t.Errorf("window [0,10) = %+v", ws[0])
	}

	ws = w.Windows(20)
	if len(ws) != 2 {
		t.Fatalf("Windows(20) closed %d windows, want 2", len(ws))
	}
	if ws[1].Start != 10 || ws[1].Queries != 1 || ws[1].Violations != 1 {
		t.Errorf("window [10,20) = %+v", ws[1])
	}
}

// TestWindowedViolationsLatencyAtTarget pins strict-inequality
// semantics: a query exactly at the QoS target is not a violation.
func TestWindowedViolationsLatencyAtTarget(t *testing.T) {
	w := NewWindowedViolations(10, 1.0)
	w.Observe(1, rec(BackendIaaS, Breakdown{Exec: 1.0}))
	ws := w.Windows(10)
	if len(ws) != 1 || ws[0].Violations != 0 {
		t.Errorf("latency == target counted as violation: %+v", ws)
	}
}

func TestWindowedViolationsNoObservations(t *testing.T) {
	w := NewWindowedViolations(10, 1.0)
	ws := w.Windows(35)
	if len(ws) != 3 { // [0,10) [10,20) [20,30)
		t.Fatalf("%d windows, want 3", len(ws))
	}
	for _, win := range ws {
		if win.Queries != 0 || win.Violations != 0 || win.Rate() != 0 {
			t.Errorf("empty stream produced non-empty window %+v", win)
		}
	}
}
