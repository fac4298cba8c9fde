// Package autoscale implements a Kubernetes-style horizontal VM
// autoscaler as an additional baseline (the elastic-IaaS line of related
// work, §VIII [25]): scale the VM group so that worker utilisation tracks
// a target, with a cooldown between actions.
//
// The comparison it exists for: reactive scaling also cuts idle cost
// under a diurnal load, but it pays VM boot delay *on the latency path*
// when the load ramps — whereas Amoeba absorbs ramps by switching early
// (prewarmed containers, boot started before the flip). The ablation
// bench quantifies both sides.
package autoscale

import (
	"fmt"
	"math"

	"amoeba/internal/iaas"
	"amoeba/internal/sim"
	"amoeba/internal/stats"
	"amoeba/internal/workload"
)

// Config tunes the autoscaler.
type Config struct {
	// Period between evaluations, seconds.
	Period float64
	// TargetUtil is the busy/slots ratio the scaler aims for.
	TargetUtil float64
	// UtilAlpha smooths the sampled utilisation.
	UtilAlpha float64
	// ScaleOutThreshold and ScaleInThreshold bound the dead zone: act
	// only when smoothed utilisation leaves [in, out].
	ScaleOutThreshold float64
	ScaleInThreshold  float64
	// Cooldown is the minimum time between scaling actions.
	Cooldown float64
	// MinVMs and MaxVMs clamp the group size.
	MinVMs, MaxVMs int
}

// DefaultConfig returns an HPA-flavoured configuration.
func DefaultConfig() Config {
	return Config{
		Period:            15,
		TargetUtil:        0.60,
		UtilAlpha:         0.4,
		ScaleOutThreshold: 0.75,
		ScaleInThreshold:  0.35,
		Cooldown:          60,
		MinVMs:            1,
		MaxVMs:            64,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Period <= 0 || c.Cooldown < 0 {
		return fmt.Errorf("autoscale: non-positive period")
	}
	if c.TargetUtil <= 0 || c.TargetUtil >= 1 {
		return fmt.Errorf("autoscale: target utilisation %v out of (0,1)", c.TargetUtil)
	}
	if !(c.ScaleInThreshold < c.TargetUtil && c.TargetUtil < c.ScaleOutThreshold) {
		return fmt.Errorf("autoscale: thresholds %v/%v do not bracket target %v",
			c.ScaleInThreshold, c.ScaleOutThreshold, c.TargetUtil)
	}
	if c.UtilAlpha <= 0 || c.UtilAlpha > 1 {
		return fmt.Errorf("autoscale: alpha %v out of (0,1]", c.UtilAlpha)
	}
	if c.MinVMs < 1 || c.MaxVMs < c.MinVMs {
		return fmt.Errorf("autoscale: VM bounds %d..%d malformed", c.MinVMs, c.MaxVMs)
	}
	return nil
}

// Autoscaler drives one service's VM group.
type Autoscaler struct {
	sim     *sim.Simulator
	vms     *iaas.Platform
	prof    workload.Profile
	cfg     Config
	util    *stats.EWMA
	last    float64 // time of the last scaling action
	scaling bool    // a scale-out is booting
	actions int
	started bool
}

// New creates an autoscaler for a service already deployed on the
// platform (typically via DeployWithVMs at MinVMs).
// It panics if the config fails validation.
func New(s *sim.Simulator, vms *iaas.Platform, prof workload.Profile, cfg Config) *Autoscaler {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Autoscaler{
		sim:  s,
		vms:  vms,
		prof: prof,
		cfg:  cfg,
		util: stats.NewEWMA(cfg.UtilAlpha),
		last: -math.MaxFloat64 / 2,
	}
}

// Start begins the evaluation loop. It panics if called twice.
func (a *Autoscaler) Start() {
	if a.started {
		panic("autoscale: Start called twice")
	}
	a.started = true
	a.sim.Every(a.cfg.Period, a.evaluate)
}

// Actions returns the number of scaling actions taken.
func (a *Autoscaler) Actions() int { return a.actions }

// Utilization returns the smoothed utilisation estimate.
func (a *Autoscaler) Utilization() float64 { return a.util.Value() }

func (a *Autoscaler) evaluate() {
	name := a.prof.Name
	slots := a.vms.Slots(name)
	if slots == 0 {
		return
	}
	// Utilisation signal: busy workers plus the waiting queue, with the
	// queue contribution capped at one slot-worth. The backlog is an
	// integral, not a rate — feeding it in raw makes the scaler chase its
	// own history and massively overshoot; capping it turns "queue
	// exists" into "we are at least 2x over target", which is all a
	// multiplicative controller needs.
	queue := a.vms.QueueLength(name)
	if queue > slots {
		queue = slots
	}
	u := a.util.Update(float64(a.vms.Busy(name)+queue) / float64(slots))

	now := float64(a.sim.Now())
	if a.scaling || now-a.last < a.cfg.Cooldown {
		return
	}
	if u > a.cfg.ScaleInThreshold && u < a.cfg.ScaleOutThreshold {
		return // dead zone
	}
	// HPA-style multiplicative step: desired = current × u / target.
	cur := a.vms.VMs(name)
	desired := int(math.Ceil(float64(cur) * u / a.cfg.TargetUtil))
	if desired < a.cfg.MinVMs {
		desired = a.cfg.MinVMs
	}
	if desired > a.cfg.MaxVMs {
		desired = a.cfg.MaxVMs
	}
	if desired == cur {
		return
	}
	a.actions++
	a.last = now
	// The signal is stale the moment the group resizes.
	a.util = stats.NewEWMA(a.cfg.UtilAlpha)
	if desired > cur {
		a.scaling = true
		a.vms.Scale(name, desired, func() { a.scaling = false })
	} else {
		// Scale in one step at a time: conservative, like HPA's default
		// stabilisation window.
		a.vms.Scale(name, cur-1, nil)
	}
}
