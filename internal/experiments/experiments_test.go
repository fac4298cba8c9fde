package experiments

import (
	"math"
	"strings"
	"testing"

	"amoeba/internal/core"
	"amoeba/internal/units"
	"amoeba/internal/workload"
)

// quickCfg returns the reduced-scale configuration used across tests.
func quickCfg() Config {
	cfg := DefaultConfig()
	cfg.Quick = true
	return cfg
}

// skipIfRace skips the full figure-reproduction simulations when the race
// detector is on; race_test.go covers the concurrency on a short horizon.
func skipIfRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("full-suite simulation skipped under -race; see race_test.go")
	}
}

var sharedSuite = NewSuite(quickCfg())

func TestTables(t *testing.T) {
	t2 := TableII()
	if t2.Rows() < 6 {
		t.Errorf("Table II has %d rows", t2.Rows())
	}
	t3 := TableIII()
	if t3.Rows() != 5 {
		t.Errorf("Table III has %d rows, want 5", t3.Rows())
	}
	if t2.String() == "" || t3.String() == "" {
		t.Error("empty render")
	}
}

func TestLevelMapping(t *testing.T) {
	cases := map[float64]string{0.9: "high", 0.5: "medium", 0.1: "low", 0.0: "-"}
	for v, want := range cases {
		if got := level(v); got != want {
			t.Errorf("level(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestFig02Shape(t *testing.T) {
	skipIfRace(t)
	r := Fig02(quickCfg())
	if len(r.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range r.Rows {
		// Diurnal pattern: the trough utilisation is far below the peak
		// (the paper's core motivation).
		if row.Lowest >= row.Average || row.Average >= row.Highest {
			t.Errorf("%s: min/avg/max not ordered: %v/%v/%v",
				row.Benchmark, row.Lowest, row.Average, row.Highest)
		}
		if row.Lowest > 0.40 {
			t.Errorf("%s: trough utilisation %v too high for a diurnal load", row.Benchmark, row.Lowest)
		}
		if !row.QoSMet {
			t.Errorf("%s: just-enough IaaS violated QoS (p95/target %v)",
				row.Benchmark, row.P95OverTarget)
		}
		if row.Highest > 1.0 {
			t.Errorf("%s: utilisation above 1: %v", row.Benchmark, row.Highest)
		}
	}
}

func TestFig03Shape(t *testing.T) {
	skipIfRace(t)
	r := Fig03(quickCfg())
	for _, row := range r.Rows {
		// Paper: serverless sustains 73.9%–89.2% of the IaaS peak. Allow
		// a generous band, but the ordering (serverless < IaaS) and a
		// non-trivial serverless capability must hold.
		if row.Ratio <= 0.4 || row.Ratio >= 1.0 {
			t.Errorf("%s: serverless/IaaS peak ratio %v outside (0.4, 1.0)",
				row.Benchmark, row.Ratio)
		}
		if row.SvlessPeakQPS >= row.IaaSPeakQPS {
			t.Errorf("%s: serverless peak %v >= IaaS peak %v",
				row.Benchmark, row.SvlessPeakQPS, row.IaaSPeakQPS)
		}
	}
}

func TestFig04Shape(t *testing.T) {
	skipIfRace(t)
	r := Fig04(quickCfg())
	for _, row := range r.Rows {
		if row.OverheadFrac < 0.05 || row.OverheadFrac > 0.45 {
			t.Errorf("%s: overhead fraction %v outside the paper's 10-45%% band",
				row.Benchmark, row.OverheadFrac)
		}
		sum := row.ProcessingF + row.CodeLoadF + row.ExecF + row.PostF
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("%s: breakdown fractions sum to %v", row.Benchmark, sum)
		}
	}
}

func TestFig08Shape(t *testing.T) {
	skipIfRace(t)
	r := Fig08(quickCfg())
	for i, c := range r.Curves {
		if err := c.Validate(); err != nil {
			t.Fatalf("curve %d invalid: %v", i, err)
		}
		lo, hi := c.Latencies[0], c.Latencies[len(c.Latencies)-1]
		if hi <= lo {
			t.Errorf("curve %d flat: %v -> %v", i, lo, hi)
		}
	}
	if r.Render().String() == "" {
		t.Error("empty figure render")
	}
}

func TestFig09Shape(t *testing.T) {
	skipIfRace(t)
	r := Fig09(quickCfg(), workload.DD())
	if err := r.Set.Validate(); err != nil {
		t.Fatal(err)
	}
	// dd is IO-dominant: its IO surface must rise more than its net one.
	ioRise := r.Set.Surfaces[1].Lat[len(r.Set.Surfaces[1].Pressures)-1][0] /
		r.Set.Surfaces[1].Lat[0][0]
	netRise := r.Set.Surfaces[2].Lat[len(r.Set.Surfaces[2].Pressures)-1][0] /
		r.Set.Surfaces[2].Lat[0][0]
	if ioRise <= netRise {
		t.Errorf("dd IO rise %v <= net rise %v", ioRise, netRise)
	}
	if tabs := r.Render(); len(tabs) != 3 {
		t.Errorf("rendered %d surface tables, want 3", len(tabs))
	}
}

func TestFig10And11Shapes(t *testing.T) {
	skipIfRace(t)
	s := sharedSuite
	r10 := Fig10(s)
	byKey := map[string]Fig10Entry{}
	for _, e := range r10.Entries {
		byKey[e.Benchmark+"/"+e.System.String()] = e
	}
	for _, prof := range quickCfg().benchmarks() {
		am := byKey[prof.Name+"/amoeba"]
		nk := byKey[prof.Name+"/nameko"]
		if !am.QoSMet {
			t.Errorf("%s: Amoeba violated QoS (p95/target %v)", prof.Name, am.P95OverTarget)
		}
		if !nk.QoSMet {
			t.Errorf("%s: Nameko violated QoS (p95/target %v)", prof.Name, nk.P95OverTarget)
		}
	}
	// dd's peak exceeds its serverless capacity: OpenWhisk must violate.
	if ow := byKey["dd/openwhisk"]; ow.QoSMet {
		t.Errorf("dd under OpenWhisk met QoS (p95/target %v); expected violation", ow.P95OverTarget)
	}

	r11 := Fig11(s)
	for _, row := range r11.Rows {
		if !row.QoSMet {
			t.Errorf("%s: Amoeba violated QoS in Fig11", row.Benchmark)
		}
		if row.CPUSavedFrac <= 0.10 {
			t.Errorf("%s: CPU savings %v too small", row.Benchmark, row.CPUSavedFrac)
		}
		if row.MemSavedFrac <= 0.10 {
			t.Errorf("%s: memory savings %v too small", row.Benchmark, row.MemSavedFrac)
		}
	}
}

func TestFig12And13Shapes(t *testing.T) {
	skipIfRace(t)
	s := sharedSuite
	r12 := Fig12(s)
	for _, tl := range r12.Timelines {
		if tl.ToServerless == 0 {
			t.Errorf("%s: never switched to serverless", tl.Benchmark)
		}
		if len(tl.Snapshots) < 10 {
			t.Errorf("%s: only %d snapshots", tl.Benchmark, len(tl.Snapshots))
		}
	}
	// dd must switch both ways within a day (Fig. 12's lower panel).
	for _, tl := range r12.Timelines {
		if tl.Benchmark == "dd" && tl.ToIaaS == 0 {
			t.Error("dd never switched back to IaaS at peak")
		}
	}
	r13 := Fig13(s)
	figs := r13.Render()
	if len(figs) != 2 {
		t.Fatalf("rendered %d figures, want 2", len(figs))
	}
}

func TestFig14Shape(t *testing.T) {
	skipIfRace(t)
	s := sharedSuite
	r := Fig14(s)
	atLeastOneWorse := false
	for _, row := range r.Rows {
		if !row.BothMeetQoS {
			t.Errorf("%s: QoS violated by Amoeba or NoM", row.Benchmark)
		}
		if row.CPUIncrease >= 1.02 || row.MemIncrease >= 1.02 {
			atLeastOneWorse = true
		}
		if row.CPUIncrease < 0.85 {
			t.Errorf("%s: NoM used markedly less CPU than Amoeba (%vx)", row.Benchmark, row.CPUIncrease)
		}
	}
	if !atLeastOneWorse {
		t.Error("NoM never increased resource usage; PCA correction is vacuous")
	}
}

func TestFig15Shape(t *testing.T) {
	skipIfRace(t)
	s := sharedSuite
	r := Fig15(s)
	for _, row := range r.Rows {
		if len(row.Points) == 0 {
			t.Errorf("%s: no valid contention points", row.Benchmark)
			continue
		}
		if row.AmoebaErr > row.NoMErr+0.02 {
			t.Errorf("%s: Amoeba error %v above NoM error %v",
				row.Benchmark, row.AmoebaErr, row.NoMErr)
		}
		if row.AmoebaErr > 0.5 {
			t.Errorf("%s: Amoeba discriminant error %v implausibly large", row.Benchmark, row.AmoebaErr)
		}
	}
}

func TestFig16Shape(t *testing.T) {
	skipIfRace(t)
	s := sharedSuite
	r := Fig16(s)
	for _, row := range r.Rows {
		if row.Switches == 0 {
			continue // no switch happened: NoP cannot be punished
		}
		if row.ViolationFrac <= row.AmoebaViolationFrac {
			t.Errorf("%s: NoP violations %v not above Amoeba's %v",
				row.Benchmark, row.ViolationFrac, row.AmoebaViolationFrac)
		}
	}
}

func TestOverheadShape(t *testing.T) {
	skipIfRace(t)
	s := sharedSuite
	r := Overhead(s)
	if len(r.Rows) != 3 {
		t.Fatalf("%d meter rows, want 3", len(r.Rows))
	}
	total := 0.0
	for _, row := range r.Rows {
		if row.AnalyticFrac <= 0 || row.AnalyticFrac > 0.02 {
			t.Errorf("%s: analytic overhead %v outside (0, 2%%]", row.Meter, row.AnalyticFrac)
		}
		total += row.AnalyticFrac
	}
	// §VII-E: the meters together cost ~1% of the platform's CPU.
	if total > 0.015 {
		t.Errorf("total meter overhead %v above ~1%%", total)
	}
	if r.MeasuredTotalFrac <= 0 || r.MeasuredTotalFrac > 0.02 {
		t.Errorf("measured overhead %v implausible", r.MeasuredTotalFrac)
	}
}

func TestSuiteMemoisation(t *testing.T) {
	skipIfRace(t)
	s := NewSuite(quickCfg())
	a := s.Run(workload.Float(), core.VariantNameko)
	b := s.Run(workload.Float(), core.VariantNameko)
	if a != b {
		t.Error("suite re-ran an identical scenario")
	}
}

// TestConfigValidate pins the configs Validate rejects: each one the
// scenario validation would reject in every run.
func TestConfigValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []struct {
		name, field string
		edit        func(*Config)
	}{
		{"zero day length", "day length", func(c *Config) { c.DayLength = 0 }},
		{"NaN day length", "day length", func(c *Config) { c.DayLength = units.Seconds(nan) }},
		{"infinite day length", "day length", func(c *Config) { c.DayLength = units.Seconds(inf) }},
		{"zero days", "days", func(c *Config) { c.Days = 0 }},
		{"NaN days", "days", func(c *Config) { c.Days = nan }},
		{"infinite days", "days", func(c *Config) { c.Days = inf }},
		{"trough fraction 1", "trough fraction", func(c *Config) { c.TroughFraction = 1 }},
		{"NaN trough fraction", "trough fraction", func(c *Config) { c.TroughFraction = units.Fraction(nan) }},
		{"a million days", "days", func(c *Config) { c.Days = 1e6 }},
		{"quick day past the cap", "day length", func(c *Config) { c.Quick, c.DayLength = true, core.MaxDuration*2 }},
	}
	for _, tc := range cases {
		c := DefaultConfig()
		tc.edit(&c)
		err := c.Validate()
		if err == nil {
			t.Errorf("%s accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: error %q does not name the %s", tc.name, err, tc.field)
		}
	}
}
