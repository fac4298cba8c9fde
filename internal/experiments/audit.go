package experiments

import (
	"amoeba/internal/core"
	"amoeba/internal/obs"
	"amoeba/internal/report"
	"amoeba/internal/workload"
)

// DecisionAuditResult is the telemetry-backed audit of one Amoeba run:
// every controller verdict with its Eq. 5 inputs and reason, and every
// deploy-mode switch with its §V-B phase durations.
type DecisionAuditResult struct {
	Decisions *report.Table
	Switches  *report.Table
}

// DecisionAudit runs one benchmark under full Amoeba with an audit log
// attached and renders the decision-audit and switch-span tables —
// the "why did it switch at t=437s?" answer, derived from the event
// stream alone. It deliberately runs a fresh scenario rather than a
// Suite-memoised one: memoised results are shared across figures (and
// prefetched concurrently), so they run unobserved.
func DecisionAudit(cfg Config, prof workload.Profile) *DecisionAuditResult {
	bus := obs.NewBus()
	audits := new(obs.AuditLog)
	bus.Attach(audits)
	sc := cfg.scenario(prof, core.VariantAmoeba)
	sc.Bus = bus
	core.Run(sc)
	evs := audits.Events()
	return &DecisionAuditResult{
		Decisions: obs.AuditTable(evs),
		Switches:  obs.SwitchTable(evs),
	}
}
