package iaas

import (
	"testing"

	"amoeba/internal/metrics"
	"amoeba/internal/sim"
	"amoeba/internal/workload"
)

func TestScaleOutPaysBootDelayThenAddsSlots(t *testing.T) {
	s := sim.New(1)
	p := New(s, DefaultConfig())
	prof := workload.Float()
	p.DeployWithVMs(prof, 1, nil)
	if p.Slots(prof.Name) != prof.VMCores {
		t.Fatalf("initial slots %d", p.Slots(prof.Name))
	}
	var readyAt float64
	s.At(10, func() {
		p.Scale(prof.Name, 3, func() { readyAt = float64(s.Now()) })
	})
	s.At(20, func() { // mid-boot: allocation up, slots not yet
		if p.VMs(prof.Name) != 3 {
			t.Errorf("VMs = %d mid-boot, want 3 (reservation holds)", p.VMs(prof.Name))
		}
		if p.Slots(prof.Name) != prof.VMCores {
			t.Errorf("slots = %d mid-boot, want still %d", p.Slots(prof.Name), prof.VMCores)
		}
		if p.AllocFor(prof.Name).CPU != float64(3*prof.VMCores) {
			t.Errorf("alloc = %v mid-boot", p.AllocFor(prof.Name).CPU)
		}
	})
	s.Run(100)
	if readyAt != 40 { // 10 + 30s boot
		t.Errorf("ready at %v, want 40", readyAt)
	}
	if p.Slots(prof.Name) != 3*prof.VMCores {
		t.Errorf("slots = %d after boot", p.Slots(prof.Name))
	}
}

func TestScaleInImmediateAndInFlightFinish(t *testing.T) {
	s := sim.New(2)
	p := New(s, DefaultConfig())
	prof := workload.Float()
	prof.ExecTime = 5 // long queries so they outlive the scale-in
	prof.QoSTarget = 20
	done := 0
	p.DeployWithVMs(prof, 3, func(metrics.QueryRecord) { done++ })
	s.At(1, func() {
		for i := 0; i < 12; i++ { // fill all 12 slots
			p.Bind(prof.Name).Invoke()
		}
	})
	s.At(2, func() { p.Scale(prof.Name, 1, nil) })
	s.At(3, func() {
		if p.Slots(prof.Name) != prof.VMCores {
			t.Errorf("slots = %d after scale-in, want %d", p.Slots(prof.Name), prof.VMCores)
		}
		if p.Busy(prof.Name) != 12 {
			t.Errorf("busy = %d; in-flight queries must survive scale-in", p.Busy(prof.Name))
		}
		if p.AllocFor(prof.Name).CPU != float64(prof.VMCores) {
			t.Errorf("allocation %v not reduced immediately", p.AllocFor(prof.Name).CPU)
		}
	})
	s.Run(60)
	if done != 12 {
		t.Errorf("%d/12 queries completed after scale-in", done)
	}
}

func TestScaleOutDrainsBacklog(t *testing.T) {
	s := sim.New(3)
	p := New(s, DefaultConfig())
	prof := workload.Float()
	prof.ExecTime = 2
	prof.QoSTarget = 60
	done := 0
	p.DeployWithVMs(prof, 1, func(metrics.QueryRecord) { done++ })
	s.At(1, func() {
		for i := 0; i < 20; i++ { // 4 run, 16 queue
			p.Bind(prof.Name).Invoke()
		}
	})
	s.At(2, func() { p.Scale(prof.Name, 5, nil) })
	// With 20 slots after boot (t=32), the backlog drains immediately.
	s.Run(40)
	if p.QueueLength(prof.Name) != 0 {
		t.Errorf("queue = %d after capacity arrived", p.QueueLength(prof.Name))
	}
	s.Run(120)
	if done != 20 {
		t.Errorf("%d/20 completed", done)
	}
}

func TestScaleValidation(t *testing.T) {
	s := sim.New(4)
	p := New(s, DefaultConfig())
	prof := workload.Float()
	p.DeployWithVMs(prof, 2, nil)
	for name, fn := range map[string]func(){
		"zero VMs":        func() { p.Scale(prof.Name, 0, nil) },
		"unknown service": func() { p.Scale("ghost", 1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
	// Scaling a stopped service panics too.
	s.At(1, func() { p.Stop(prof.Name, nil) })
	s.Run(10)
	defer func() {
		if recover() == nil {
			t.Error("scaling a stopped service did not panic")
		}
	}()
	p.Scale(prof.Name, 3, nil)
}

func TestDeployWithVMsValidation(t *testing.T) {
	s := sim.New(5)
	p := New(s, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Error("zero-VM deploy did not panic")
		}
	}()
	p.DeployWithVMs(workload.Float(), 0, nil)
}
