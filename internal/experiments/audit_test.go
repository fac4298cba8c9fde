package experiments

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"strings"
	"testing"

	"amoeba/internal/core"
	"amoeba/internal/report"
	"amoeba/internal/workload"
)

// TestDecisionAudit runs dd over a full 3600 s day, which emits about
// 900,000 events, far more than a bounded ring of the last 2^18 keeps.
// The audit must still list every decision of the day: one row per
// entry of the same scenario's Decisions, at the same instants, run
// unobserved, since observing a run does not change what it decides.
func TestDecisionAudit(t *testing.T) {
	skipIfRace(t)
	cfg := quickCfg()
	cfg.DayLength = 3600
	prof := workload.DD()
	r := DecisionAudit(cfg, prof)

	sr := core.Run(cfg.scenario(prof, core.VariantAmoeba)).Services[prof.Name]
	rows := tableRows(t, r.Decisions)
	if len(rows) != len(sr.Decisions) {
		t.Fatalf("decision audit lists %d decisions, the run made %d", len(rows), len(sr.Decisions))
	}
	for i, d := range sr.Decisions {
		if want := fmt.Sprintf("%.0f", d.At.Raw()); rows[i][0] != want {
			t.Fatalf("audit row %d at t=%s, decision %d at t=%s", i, rows[i][0], i, want)
		}
	}
	if got, want := r.Switches.Rows(), len(sr.Timeline.Switches); got != want {
		t.Errorf("switch-span table lists %d switches, the timeline %d", got, want)
	}
	if r.Switches.Rows() == 0 {
		t.Error("switch-span table is empty over a diurnal day")
	}
	out := r.Decisions.String()
	for _, col := range []string{"verdict", "reason", "mu", "admissible_qps"} {
		if !strings.Contains(out, col) {
			t.Errorf("decision table missing column %q", col)
		}
	}
}

// tableRows returns a table's data rows through its CSV export.
func tableRows(t *testing.T, tbl *report.Table) [][]string {
	t.Helper()
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return recs[1:]
}
