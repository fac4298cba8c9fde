package workload

import (
	"math"
	"testing"

	"amoeba/internal/resources"
)

func TestAllProfilesValid(t *testing.T) {
	all := All()
	if len(all) != 5 {
		t.Fatalf("All() returned %d profiles, want 5", len(all))
	}
	for _, p := range all {
		if err := p.Validate(); err != nil {
			t.Errorf("%s invalid: %v", p.Name, err)
		}
	}
}

func TestProfilesMatchTableIII(t *testing.T) {
	// Spot-check the sensitivity structure of Table III.
	f := Float()
	if f.Sensitivity.CPU < 0.8 || f.Sensitivity.IO != 0 {
		t.Errorf("float sensitivities %+v do not match Table III (CPU high, IO -)", f.Sensitivity)
	}
	d := DD()
	if d.Sensitivity.IO < 0.8 || d.Sensitivity.CPU > 0.6 {
		t.Errorf("dd sensitivities %+v do not match Table III (IO high, CPU medium)", d.Sensitivity)
	}
	c := CloudStor()
	if c.Sensitivity.Net < 0.8 || c.Sensitivity.CPU > 0.3 {
		t.Errorf("cloud_stor sensitivities %+v do not match Table III (Net high, CPU low)", c.Sensitivity)
	}
}

func TestProfilesFitContainer(t *testing.T) {
	for _, p := range All() {
		if p.Demand.MemMB > ContainerMemMB {
			t.Errorf("%s working set %vMB exceeds the %dMB container of Table II",
				p.Name, p.Demand.MemMB, ContainerMemMB)
		}
	}
}

func TestOverheadsWithinPaperRange(t *testing.T) {
	// Fig. 4: extra overheads are 10–45%% of a query's end-to-end latency.
	for _, p := range All() {
		frac := p.Overheads.Total() / (p.Overheads.Total() + p.ExecTime)
		if frac < 0.05 || frac > 0.45 {
			t.Errorf("%s overhead fraction %.2f outside Fig. 4's 10-45%% band", p.Name, frac)
		}
	}
}

func TestByName(t *testing.T) {
	for _, want := range All() {
		got, err := ByName(want.Name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", want.Name, err)
		}
		if got.Name != want.Name {
			t.Errorf("ByName(%q) returned %q", want.Name, got.Name)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName of unknown benchmark did not error")
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	base := Float()
	cases := map[string]func(Profile) Profile{
		"empty name":    func(p Profile) Profile { p.Name = ""; return p },
		"zero exec":     func(p Profile) Profile { p.ExecTime = 0; return p },
		"qos <= exec":   func(p Profile) Profile { p.QoSTarget = p.ExecTime; return p },
		"zero cpu":      func(p Profile) Profile { p.Demand.CPU = 0; return p },
		"neg demand":    func(p Profile) Profile { p.Demand = resources.Vector{CPU: 1, MemMB: -5}; return p },
		"bad sens":      func(p Profile) Profile { p.Sensitivity.CPU = -1; return p },
		"zero peak":     func(p Profile) Profile { p.PeakQPS = 0; return p },
		"NaN peak":      func(p Profile) Profile { p.PeakQPS = math.NaN(); return p },
		"infinite peak": func(p Profile) Profile { p.PeakQPS = math.Inf(1); return p },
		"zero vm cores": func(p Profile) Profile { p.VMCores = 0; return p },
		"huge cv":       func(p Profile) Profile { p.ExecCV = 3; return p },
	}
	for name, mutate := range cases {
		if mutate(base).Validate() == nil {
			t.Errorf("Validate accepted profile with %s", name)
		}
	}
}

func TestServiceDemandSeconds(t *testing.T) {
	p := Profile{Demand: resources.Vector{CPU: 0.5}, ExecTime: 0.2}
	if got := p.ServiceDemandSeconds(); got != 0.1 {
		t.Errorf("ServiceDemandSeconds = %v, want 0.1", got)
	}
}

func TestQoSHeadroomOrdering(t *testing.T) {
	// float is the tight-QoS benchmark: its target/exec ratio must be the
	// smallest of the suite (this drives its low peak utilisation, Fig. 2).
	ratios := map[string]float64{}
	for _, p := range All() {
		ratios[p.Name] = p.QoSTarget / p.ExecTime
	}
	for name, r := range ratios {
		if name != "float" && r < ratios["float"] {
			t.Errorf("%s ratio %.2f below float's %.2f; float must be tightest", name, r, ratios["float"])
		}
	}
}
