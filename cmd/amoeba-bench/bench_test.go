package main

import (
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// shortScale cuts every horizon to a few percent of a day, so the whole
// package tests in seconds.
const shortScale = 0.03

func TestVerifyShort(t *testing.T) {
	var log strings.Builder
	if err := verify(0xA0EBA, shortScale, &log); err != nil {
		t.Fatalf("%v\n%s", err, log.String())
	}
	t.Log("\n" + log.String())
}

// TestDigestSeesSeed guards the verify checks against a digest too
// coarse to tell two different runs apart.
func TestDigestSeesSeed(t *testing.T) {
	w, err := lookupWorkload("amoeba-day")
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := w.digests(w.scenarios(1, shortScale)[:1])
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := w.digests(w.scenarios(2, shortScale)[:1])
	if err != nil {
		t.Fatal(err)
	}
	if a[0] == b[0] {
		t.Error("seeds 1 and 2 give the same Result digest")
	}
}

func TestBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "..", benchJSON))
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	checkName := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}

	var specWorkloads, ours []string
	for _, w := range spec.Workloads {
		checkName(w.Name)
		specWorkloads = append(specWorkloads, w.Name)
	}
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if strings.Join(specWorkloads, ",") != strings.Join(ours, ",") {
		t.Errorf("BENCHMARK.json workloads %v, the command runs %v", specWorkloads, ours)
	}
	for _, m := range spec.EndToEnd {
		checkName(m.Name)
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound must be in (0, 0.25]", m.Name)
		}
	}
	for _, m := range spec.PerLayer {
		checkName(m.Name)
		if m.Bound != nil {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}

	// The command prints exactly the metrics the file lists, with the
	// file's units, in both modes.
	w, err := lookupWorkload("openwhisk-overload")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		traced bool
		want   []specMetric
	}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
		rep, _, err := measure(w, runConfig{seed: 7, seconds: 1, traced: c.traced, outDir: t.TempDir(), scale: shortScale})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Correct || rep.Attempted == 0 || rep.Failed != 0 {
			t.Errorf("traced=%v: correct=%v attempted=%d failed=%d", c.traced, rep.Correct, rep.Attempted, rep.Failed)
		}
		var got, want []string
		for name, m := range rep.Metrics {
			got = append(got, name+" "+m.Unit)
		}
		for _, m := range c.want {
			want = append(want, m.Name+" "+m.Unit)
		}
		sort.Strings(got)
		sort.Strings(want)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("traced=%v: command prints\n%s\nBENCHMARK.json lists\n%s", c.traced, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([...], n=4) values, exclusive method.
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{10, 1, 7, 3, 5, 9, 2, 8, 4, 6}, 2.75, 5.5, 8.25},
	} {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}
