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

// The scaler's fixed, HPA-flavoured settings.
const (
	// period between evaluations, seconds.
	period = 15
	// targetUtil is the busy/slots ratio the scaler aims for.
	targetUtil = 0.60
	// utilAlpha smooths the sampled utilisation.
	utilAlpha = 0.4
	// scaleOutThreshold and scaleInThreshold bound the dead zone: act
	// only when smoothed utilisation leaves [in, out].
	scaleOutThreshold = 0.75
	scaleInThreshold  = 0.35
)

// MinVMs is the smallest group the scaler keeps, and the size a service
// starts at.
const MinVMs = 1

// Config tunes the autoscaler.
type Config struct {
	// Cooldown is the minimum time between scaling actions.
	Cooldown float64
	// MaxVMs caps the group size.
	MaxVMs int
}

// DefaultConfig returns an HPA-flavoured configuration.
func DefaultConfig() Config {
	return Config{
		Cooldown: 60,
		MaxVMs:   64,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Cooldown < 0 {
		return fmt.Errorf("autoscale: negative cooldown %v", c.Cooldown)
	}
	if c.MaxVMs < MinVMs {
		return fmt.Errorf("autoscale: MaxVMs %d below MinVMs %d", c.MaxVMs, MinVMs)
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
		util: stats.NewEWMA(utilAlpha),
		last: -math.MaxFloat64 / 2,
	}
}

// Start begins the evaluation loop. It panics if called twice.
func (a *Autoscaler) Start() {
	if a.started {
		panic("autoscale: Start called twice")
	}
	a.started = true
	a.sim.Every(period, a.evaluate)
}

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
	if u > scaleInThreshold && u < scaleOutThreshold {
		return // dead zone
	}
	// HPA-style multiplicative step: desired = current × u / target.
	cur := a.vms.VMs(name)
	desired := int(math.Ceil(float64(cur) * u / targetUtil))
	if desired < MinVMs {
		desired = MinVMs
	}
	if desired > a.cfg.MaxVMs {
		desired = a.cfg.MaxVMs
	}
	if desired == cur {
		return
	}
	a.last = now
	// The signal is stale the moment the group resizes.
	a.util = stats.NewEWMA(utilAlpha)
	if desired > cur {
		a.scaling = true
		a.vms.Scale(name, desired, func() { a.scaling = false })
	} else {
		// Scale in one step at a time: conservative, like HPA's default
		// stabilisation window.
		a.vms.Scale(name, cur-1, nil)
	}
}
