package autoscale

import (
	"testing"

	"amoeba/internal/arrival"
	"amoeba/internal/iaas"
	"amoeba/internal/metrics"
	"amoeba/internal/sim"
	"amoeba/internal/trace"
	"amoeba/internal/workload"
)

func rig(seed uint64, cfg Config) (*sim.Simulator, *iaas.Platform, *Autoscaler, *metrics.Collector) {
	s := sim.New(seed)
	vms := iaas.New(s, iaas.DefaultConfig())
	prof := workload.Float()
	coll := metrics.NewCollector(prof.Name, prof.QoSTarget)
	vms.DeployWithVMs(prof, cfg.MinVMs, coll.Observe)
	a := New(s, vms, prof, cfg)
	a.Start()
	return s, vms, a, coll
}

func TestScalesOutUnderLoad(t *testing.T) {
	cfg := DefaultConfig()
	s, vms, a, _ := rig(1, cfg)
	// 1 VM = 4 slots; 40 QPS × 0.1 s needs ~4 busy workers at 100%:
	// far over the 75% threshold.
	gen := arrival.New(s, trace.Constant{QPS: 40}, func(sim.Time) { vms.Bind("float").Invoke() })
	gen.Start()
	s.Run(600)
	if vms.VMs("float") <= cfg.MinVMs {
		t.Fatalf("never scaled out: %d VMs, util %v", vms.VMs("float"), a.util.Value())
	}
	// Post-scale utilisation near target.
	if u := a.util.Value(); u > cfg.ScaleOutThreshold+0.1 {
		t.Errorf("still overloaded after scaling: util %v", u)
	}
}

func TestScalesInWhenIdle(t *testing.T) {
	cfg := DefaultConfig()
	s, vms, _, _ := rig(2, cfg)
	// Load for a while, then nothing.
	gen := arrival.New(s, trace.Step{Before: 40, After: 0.5, At: 600}, func(sim.Time) { vms.Bind("float").Invoke() })
	gen.Start()
	s.Run(600)
	peakVMs := vms.VMs("float")
	if peakVMs <= cfg.MinVMs {
		t.Fatalf("setup failed: never scaled out (%d VMs)", peakVMs)
	}
	s.Run(3600)
	if got := vms.VMs("float"); got != cfg.MinVMs {
		t.Errorf("idle group still at %d VMs, want MinVMs=%d", got, cfg.MinVMs)
	}
}

func TestRespectsBounds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxVMs = 2
	s, vms, _, _ := rig(3, cfg)
	gen := arrival.New(s, trace.Constant{QPS: 200}, func(sim.Time) { vms.Bind("float").Invoke() })
	gen.Start()
	s.Run(400)
	if got := vms.VMs("float"); got > 2 {
		t.Errorf("scaled past MaxVMs: %d", got)
	}
}

func TestCooldownLimitsActionRate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cooldown = 300
	s, vms, _, _ := rig(4, cfg)
	gen := arrival.New(s, trace.Constant{QPS: 80}, func(sim.Time) { vms.Bind("float").Invoke() })
	gen.Start()
	// Every action resizes the group at once, so the actions are the
	// changes of its VM count.
	actions, last := 0, vms.VMs("float")
	s.Every(1, func() {
		if n := vms.VMs("float"); n != last {
			actions, last = actions+1, n
		}
	})
	s.Run(600)
	if actions == 0 {
		t.Fatal("never scaled under 80 QPS")
	}
	// At most two actions fit in 600s with a 300s cooldown (plus boot).
	if actions > 3 {
		t.Errorf("%d actions despite 300s cooldown", actions)
	}
}

func TestRampViolatesTightQoSBeforeCapacityArrives(t *testing.T) {
	// The structural weakness Amoeba avoids: a sudden ramp queues behind
	// the 30s VM boot, and float's 180ms target cannot absorb that.
	cfg := DefaultConfig()
	s, vms, _, coll := rig(5, cfg)
	gen := arrival.New(s, trace.Step{Before: 2, After: 45, At: 300}, func(sim.Time) { vms.Bind("float").Invoke() })
	gen.Start()
	s.Run(900)
	if coll.ViolationFraction() < 0.01 {
		t.Errorf("ramp produced only %.2f%% violations; boot delay should bite",
			100*coll.ViolationFraction())
	}
}

func TestConfigValidate(t *testing.T) {
	bad := DefaultConfig()
	bad.TargetUtil = 0.9
	bad.ScaleOutThreshold = 0.8 // target above out-threshold
	if bad.Validate() == nil {
		t.Error("non-bracketing thresholds accepted")
	}
	bad = DefaultConfig()
	bad.MinVMs = 0
	if bad.Validate() == nil {
		t.Error("zero MinVMs accepted")
	}
	bad = DefaultConfig()
	bad.Period = 0
	if bad.Validate() == nil {
		t.Error("zero period accepted")
	}
}

func TestStartTwicePanics(t *testing.T) {
	s := sim.New(6)
	vms := iaas.New(s, iaas.DefaultConfig())
	vms.DeployWithVMs(workload.Float(), 1, nil)
	a := New(s, vms, workload.Float(), DefaultConfig())
	a.Start()
	defer func() {
		if recover() == nil {
			t.Error("double Start did not panic")
		}
	}()
	a.Start()
}
