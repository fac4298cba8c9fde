package experiments

import (
	"fmt"

	"amoeba/internal/core"
	"amoeba/internal/report"
	"amoeba/internal/serverless"
	"amoeba/internal/surfaces"
	"amoeba/internal/workload"
)

// Fig09Result reproduces paper Fig. 9: the three latency surfaces of an
// example microservice — its mean body latency as (pressure, own load)
// sweep a grid, one surface per shared resource.
type Fig09Result struct {
	Benchmark string
	Set       *surfaces.Set
}

// Fig09 profiles the surfaces of the given benchmark (the paper shows one
// example microservice; dd makes the IO sensitivity visible).
// It panics if the config fails validation.
func Fig09(cfg Config, prof workload.Profile) *Fig09Result {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Fig09Result{
		Benchmark: prof.Name,
		Set:       core.SurfaceSet(prof, serverless.DefaultConfig()),
	}
}

// Fig09Default profiles the paper's style example using dd.
func Fig09Default(cfg Config) *Fig09Result { return Fig09(cfg, workload.DD()) }

// Render formats the surfaces as one table per resource.
func (r *Fig09Result) Render() []*report.Table {
	names := []string{"CPU", "IO", "network"}
	var out []*report.Table
	for idx, sf := range r.Set.Surfaces {
		cols := []string{"pressure \\ load_qps"}
		for _, l := range sf.Loads {
			cols = append(cols, fmt.Sprintf("%.1f", l))
		}
		t := report.NewTable(
			fmt.Sprintf("Fig. 9(%c): %s sensitivity surface of %s (mean body latency, s)",
				'a'+idx, names[idx], r.Benchmark), cols...)
		for i, p := range sf.Pressures {
			row := []interface{}{fmt.Sprintf("%.2f", p)}
			for j := range sf.Loads {
				row = append(row, sf.Lat[i][j])
			}
			t.AddRow(row...)
		}
		out = append(out, t)
	}
	return out
}
