// Command amoeba-repro regenerates the paper's evaluation artifacts: every
// table and figure of §VII, printed as ASCII tables/series and optionally
// exported as CSV for plotting.
//
// Usage:
//
//	amoeba-repro                 # everything (full-scale, minutes)
//	amoeba-repro -quick          # reduced scale (seconds to a minute)
//	amoeba-repro -exp fig11      # one artifact
//	amoeba-repro -parallel 8     # sweep workers (0 = GOMAXPROCS)
//	amoeba-repro -shards 8       # sharded kernel per simulation
//	amoeba-repro -csv out/       # also write out/<artifact>.csv
//	amoeba-repro -list           # list artifact ids
//
// Parallelism spreads independent (benchmark, variant) simulations over
// a bounded worker pool; each simulation stays sequential and
// deterministic, so the rendered artifacts are byte-identical for a
// given seed whatever -parallel is set to.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"amoeba/internal/experiments"
	"amoeba/internal/report"
	"amoeba/internal/workload"
)

// renderable is anything an artifact produces: both report.Table and
// report.Figure satisfy it.
type renderable interface {
	String() string
	WriteCSV(w io.Writer) error
}

type artifact struct {
	id   string
	desc string
	make func(cfg experiments.Config, suite *experiments.Suite) []renderable
}

func one(r renderable) []renderable { return []renderable{r} }

func artifacts() []artifact {
	return []artifact{
		{"tab2", "Table II: hardware and software setup",
			func(experiments.Config, *experiments.Suite) []renderable { return one(experiments.TableII()) }},
		{"tab3", "Table III: benchmark sensitivities",
			func(experiments.Config, *experiments.Suite) []renderable { return one(experiments.TableIII()) }},
		{"fig2", "Fig. 2: IaaS CPU utilisation",
			func(cfg experiments.Config, _ *experiments.Suite) []renderable {
				return one(experiments.Fig02(cfg).Render())
			}},
		{"fig3", "Fig. 3: serverless vs IaaS peak load",
			func(cfg experiments.Config, _ *experiments.Suite) []renderable {
				return one(experiments.Fig03(cfg).Render())
			}},
		{"fig4", "Fig. 4: serverless latency breakdown",
			func(cfg experiments.Config, _ *experiments.Suite) []renderable {
				return one(experiments.Fig04(cfg).Render())
			}},
		{"fig8", "Fig. 8: contention meter curves",
			func(cfg experiments.Config, _ *experiments.Suite) []renderable {
				return one(experiments.Fig08(cfg).Render())
			}},
		{"fig9", "Fig. 9: latency surfaces (dd)",
			func(cfg experiments.Config, _ *experiments.Suite) []renderable {
				var out []renderable
				for _, t := range experiments.Fig09Default(cfg).Render() {
					out = append(out, t)
				}
				return out
			}},
		{"fig10", "Fig. 10: latency CDF, Amoeba vs Nameko vs OpenWhisk",
			func(_ experiments.Config, s *experiments.Suite) []renderable {
				return one(experiments.Fig10(s).Render())
			}},
		{"fig11", "Fig. 11: resource usage vs Nameko",
			func(_ experiments.Config, s *experiments.Suite) []renderable {
				return one(experiments.Fig11(s).Render())
			}},
		{"fig12", "Fig. 12: deploy-mode switch timeline",
			func(_ experiments.Config, s *experiments.Suite) []renderable {
				return one(experiments.Fig12(s).Render())
			}},
		{"fig13", "Fig. 13: resource usage timeline",
			func(_ experiments.Config, s *experiments.Suite) []renderable {
				var out []renderable
				for _, f := range experiments.Fig13(s).Render() {
					out = append(out, f)
				}
				return out
			}},
		{"fig14", "Fig. 14: Amoeba vs Amoeba-NoM",
			func(_ experiments.Config, s *experiments.Suite) []renderable {
				return one(experiments.Fig14(s).Render())
			}},
		{"fig15", "Fig. 15: discriminant error",
			func(_ experiments.Config, s *experiments.Suite) []renderable {
				return one(experiments.Fig15(s).Render())
			}},
		{"fig16", "Fig. 16: QoS violations without prewarm",
			func(_ experiments.Config, s *experiments.Suite) []renderable {
				return one(experiments.Fig16(s).Render())
			}},
		{"overhead", "§VII-E: contention meter overhead",
			func(_ experiments.Config, s *experiments.Suite) []renderable {
				return one(experiments.Overhead(s).Render())
			}},
		{"elasticity", "Extension: Amoeba vs VM autoscaler (usage, QoS, cost)",
			func(_ experiments.Config, s *experiments.Suite) []renderable {
				return one(experiments.Elasticity(s).Render())
			}},
		{"audit", "Decision audit: telemetry-backed verdict and switch-span tables (dd)",
			func(cfg experiments.Config, _ *experiments.Suite) []renderable {
				r := experiments.DecisionAudit(cfg, workload.DD())
				return []renderable{r.Decisions, r.Switches}
			}},
	}
}

func main() {
	var (
		expFlag  = flag.String("exp", "all", "comma-separated artifact ids, or 'all'")
		quick    = flag.Bool("quick", false, "reduced scale (fewer benchmarks, shorter runs)")
		list     = flag.Bool("list", false, "list artifact ids and exit")
		seed     = flag.Uint64("seed", 0xA0EBA, "simulation seed")
		csvDir   = flag.String("csv", "", "directory to export <artifact>.csv files into")
		parallel = flag.Int("parallel", 0, "sweep worker count; 0 means GOMAXPROCS")
		shards   = flag.Int("shards", 0, "run each simulation on the sharded kernel with this many workers (0 = sequential kernel)")
	)
	flag.Parse()

	if *shards < 0 {
		fmt.Fprintf(os.Stderr, "-shards %d is negative (0 runs the sequential kernel)\n", *shards)
		os.Exit(2)
	}
	all := artifacts()
	if *list {
		for _, a := range all {
			fmt.Printf("%-9s %s\n", a.id, a.desc)
		}
		return
	}

	cfg := experiments.DefaultConfig()
	cfg.Quick = *quick
	cfg.Seed = *seed
	suite := experiments.NewSuite(cfg)
	suite.Parallel = *parallel
	suite.Shards = *shards

	want := map[string]bool{}
	if *expFlag != "all" {
		for _, id := range strings.Split(*expFlag, ",") {
			want[strings.TrimSpace(id)] = true
		}
		known := map[string]bool{}
		for _, a := range all {
			known[a.id] = true
		}
		var unknown []string
		for id := range want {
			if !known[id] {
				unknown = append(unknown, id)
			}
		}
		if len(unknown) > 0 {
			sort.Strings(unknown)
			fmt.Fprintf(os.Stderr, "unknown artifact(s): %s (use -list)\n", strings.Join(unknown, ", "))
			os.Exit(2)
		}
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	for _, a := range all {
		if len(want) > 0 && !want[a.id] {
			continue
		}
		fmt.Printf("==> %s — %s\n", a.id, a.desc)
		start := time.Now()
		outs := a.make(cfg, suite)
		for _, r := range outs {
			fmt.Print(r.String())
		}
		if *csvDir != "" {
			if err := exportCSV(*csvDir, a.id, outs); err != nil {
				fmt.Fprintf(os.Stderr, "csv export of %s failed: %v\n", a.id, err)
				os.Exit(1)
			}
		}
		fmt.Printf("    (%.1fs)\n\n", time.Since(start).Seconds())
	}
}

func exportCSV(dir, id string, outs []renderable) error {
	for i, r := range outs {
		name := report.CSVName(id)
		if len(outs) > 1 {
			name = report.CSVName(fmt.Sprintf("%s_%c", id, 'a'+i))
		}
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := r.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
