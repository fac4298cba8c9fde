package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// benchJSON is the benchmark definition, relative to the repository
// root the benchmark runs from.
const benchJSON = "BENCHMARK.json"

// benchSpec is the part of BENCHMARK.json the tool and its tests read.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runSet is the metric values of a set of runs, by workload and metric.
type runSet map[string]map[string][]float64

// loadRuns reads every file in dir as one run's standard output: a
// run-info line naming the workload, then the result object last.
func loadRuns(dir string) (runSet, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		return nil, err
	}
	set := runSet{}
	for _, path := range files {
		info, rep, err := readRun(path)
		if err != nil {
			return nil, err
		}
		if set[info.Workload] == nil {
			set[info.Workload] = map[string][]float64{}
		}
		for name, m := range rep.Metrics {
			set[info.Workload][name] = append(set[info.Workload][name], m.Value)
		}
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("no run outputs in %s", dir)
	}
	return set, nil
}

func readRun(path string) (runInfo, report, error) {
	var info runInfo
	var rep report
	f, err := os.Open(path)
	if err != nil {
		return info, rep, err
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if line := sc.Text(); line != "" {
			lines = append(lines, line)
		}
	}
	if err := sc.Err(); err != nil {
		return info, rep, fmt.Errorf("%s: %w", path, err)
	}
	if len(lines) < 2 {
		return info, rep, fmt.Errorf("%s: not a run output (want a run-info line and a result line)", path)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &info); err != nil || info.Workload == "" {
		return info, rep, fmt.Errorf("%s: no run-info line before the result", path)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return info, rep, fmt.Errorf("%s: result line: %w", path, err)
	}
	return info, rep, nil
}

// quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(xs, n=4) computes them (the exclusive
// method), so the numbers match that common reference.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := (n + 1) * i
		j := m / 4
		j = max(1, min(j, n-1))
		delta := float64(m - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// compareRuns prints, per workload and metric, both sets' medians and
// quartiles and a verdict against the metric's bound: WORSE when B's
// median is worse than A's by more than the bound, unresolved when
// either set's own spread exceeds it. It reports whether any metric got
// worse.
func compareRuns(dirA, dirB, specPath string, out io.Writer) (bool, error) {
	spec, err := loadSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := loadRuns(dirA)
	if err != nil {
		return false, err
	}
	b, err := loadRuns(dirB)
	if err != nil {
		return false, err
	}
	metrics := append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...)
	tw := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3] (n)\tB median [q1, q3] (n)\tchange\tbound\tverdict")
	worse := false
	for _, wl := range sortedKeys(a) {
		for _, m := range metrics {
			xa, xb := a[wl][m.Name], b[wl][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			a1, am, a3 := quartiles(xa)
			b1, bm, b3 := quartiles(xb)
			change := relChange(am, bm)
			if m.Better == "higher" {
				change = -change
			}
			verdict, bound := "", "-"
			if m.Bound != nil {
				bd := *m.Bound
				bound = fmt.Sprintf("%.1f%%", 100*bd)
				switch {
				case spread(a1, am, a3) > bd || spread(b1, bm, b3) > bd:
					verdict = "unresolved"
				case change > bd:
					verdict, worse = "WORSE", true
				case change < -bd:
					verdict = "better"
				default:
					verdict = "ok"
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g [%.6g, %.6g] (%d)\t%.6g [%.6g, %.6g] (%d)\t%+.2f%%\t%s\t%s\n",
				wl, m.Name, m.Unit, am, a1, a3, len(xa), bm, b1, b3, len(xb), 100*change, bound, verdict)
		}
	}
	return worse, tw.Flush()
}

// relChange is (b-a)/|a|, positive when b is larger; 0 when both are 0.
func relChange(a, b float64) float64 {
	if a == b {
		return 0
	}
	return (b - a) / math.Abs(a)
}

// spread is the interquartile distance as a share of the median.
func spread(q1, med, q3 float64) float64 {
	if med == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}
