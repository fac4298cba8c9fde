package metrics

import "fmt"

// WindowedViolations tracks the QoS-violation rate over fixed time
// windows — the time-resolved view behind Fig. 16's aggregate: it shows
// *when* violations happen (cold-start storms right after a switch)
// rather than only how many.
type WindowedViolations struct {
	window  float64
	target  float64
	current ViolationWindow // the open window
	closed  []ViolationWindow
}

// ViolationWindow is one window's tally.
type ViolationWindow struct {
	Start      float64
	Queries    int
	Violations int
}

// Rate returns the window's violation fraction (0 for an empty window).
func (w ViolationWindow) Rate() float64 {
	if w.Queries == 0 {
		return 0
	}
	return float64(w.Violations) / float64(w.Queries)
}

// NewWindowedViolations creates a tracker with the given window length
// (seconds) and QoS target (seconds). It panics unless both are positive.
func NewWindowedViolations(window, target float64) *WindowedViolations {
	if window <= 0 || target <= 0 {
		panic(fmt.Sprintf("metrics: invalid windowed tracker (window %v, target %v)", window, target))
	}
	return &WindowedViolations{window: window, target: target}
}

// Observe records one completed query at virtual time now.
func (t *WindowedViolations) Observe(now float64, r QueryRecord) {
	t.advance(now)
	t.current.Queries++
	if r.Latency() > t.target {
		t.current.Violations++
	}
}

// advance closes windows up to (not including) the one containing now.
func (t *WindowedViolations) advance(now float64) {
	for now >= t.current.Start+t.window {
		t.closed = append(t.closed, t.current)
		t.current = ViolationWindow{Start: t.current.Start + t.window}
	}
}

// Windows finalises up to time now and returns all closed windows.
func (t *WindowedViolations) Windows(now float64) []ViolationWindow {
	t.advance(now)
	out := make([]ViolationWindow, len(t.closed))
	copy(out, t.closed)
	return out
}
