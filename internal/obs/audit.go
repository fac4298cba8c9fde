package obs

import (
	"fmt"

	"amoeba/internal/report"
)

// AuditLog is a sink keeping copies of every DecisionEvent and
// SwitchSpan, the two kinds AuditTable and SwitchTable read, in emission
// order. It keeps no other kind, so it holds every decision of a run
// however many queries the run serves. The zero value is ready to use.
type AuditLog struct{ events []Event }

// Consume implements Sink.
func (a *AuditLog) Consume(ev Event) {
	if k := ev.EventKind(); k == KindDecision || k == KindSwitchSpan {
		a.events = append(a.events, clone(ev))
	}
}

// Events returns the kept events in emission order.
func (a *AuditLog) Events() []Event { return a.events }

// AuditTable renders the decision-audit trail from an event stream: one
// row per DecisionEvent with the discriminant inputs (load, μ̂,
// admissible load, pressure) and the verdict with its reason — the
// "why did it switch at t=437s?" view, reconstructable from any sink
// that retained the events.
func AuditTable(events []Event) *report.Table {
	t := report.NewTable("decision audit",
		"t_s", "service", "mode", "load_qps", "mu", "admissible_qps",
		"p_cpu", "p_io", "p_net", "verdict", "reason")
	for _, ev := range events {
		d, ok := ev.(*DecisionEvent)
		if !ok {
			continue
		}
		t.AddRow(
			fmt.Sprintf("%.0f", d.At.Raw()),
			d.Service,
			d.Mode,
			fmt.Sprintf("%.2f", d.LoadQPS.Raw()),
			fmt.Sprintf("%.3f", d.Mu.Raw()),
			fmt.Sprintf("%.2f", d.AdmissibleQPS.Raw()),
			fmt.Sprintf("%.3f", d.Pressure[0]),
			fmt.Sprintf("%.3f", d.Pressure[1]),
			fmt.Sprintf("%.3f", d.Pressure[2]),
			d.Verdict,
			d.Reason,
		)
	}
	return t
}

// SwitchTable renders the switch-span trail: one row per SwitchSpan
// with the per-phase durations of the §V protocol.
func SwitchTable(events []Event) *report.Table {
	t := report.NewTable("switch spans",
		"start_s", "service", "from", "to", "prewarm_s", "drain_s",
		"total_s", "prewarmed", "aborted")
	for _, ev := range events {
		s, ok := ev.(*SwitchSpan)
		if !ok {
			continue
		}
		t.AddRow(
			fmt.Sprintf("%.0f", s.Start.Raw()),
			s.Service,
			s.From,
			s.To,
			fmt.Sprintf("%.2f", s.PrewarmS.Raw()),
			fmt.Sprintf("%.2f", s.DrainS.Raw()),
			fmt.Sprintf("%.2f", (s.End-s.Start).Raw()),
			s.Prewarmed,
			s.Aborted,
		)
	}
	return t
}
