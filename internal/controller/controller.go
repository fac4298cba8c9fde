// Package controller implements the contention-aware deployment
// controller (§IV): per service, it estimates the current load, predicts
// the per-container processing capacity μ_n on the serverless platform
// from the quantified pressure and the service's latency surfaces
// (Eq. 6), evaluates the M/M/N discriminant (Eq. 5) for the admissible
// load λ(μ_n), and decides which deployment mode the service should be in.
package controller

import (
	"fmt"

	"amoeba/internal/metrics"
	"amoeba/internal/monitor"
	"amoeba/internal/obs"
	"amoeba/internal/queueing"
	"amoeba/internal/surfaces"
	"amoeba/internal/units"
	"amoeba/internal/workload"
)

// Predictor is the pure prediction core: given pressure, load, and
// calibrated weights it produces μ_n and the admissible load. It is
// deliberately side-effect free so Fig. 15 can evaluate it against
// enumerated ground truth.
type Predictor struct {
	Profile  workload.Profile
	Surfaces *surfaces.Set
	NMax     int
	// Quantile is the QoS latency quantile (0.95).
	Quantile units.Fraction
}

// NewPredictor builds a predictor, validating the profile, surfaces, and
// discriminant parameters — all of which trace back to user-supplied
// scenario configuration, so malformed inputs are reported as errors
// rather than aborting a whole experiment suite.
func NewPredictor(prof workload.Profile, set *surfaces.Set, nMax int, quantile units.Fraction) (*Predictor, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	if set == nil {
		return nil, fmt.Errorf("controller: nil surface set")
	}
	if err := set.Validate(); err != nil {
		return nil, err
	}
	if set.Service != prof.Name {
		return nil, fmt.Errorf("controller: surfaces for %q used with profile %q", set.Service, prof.Name)
	}
	if nMax <= 0 {
		return nil, fmt.Errorf("controller: non-positive nMax %d", nMax)
	}
	if quantile <= 0 || quantile >= 1 {
		return nil, fmt.Errorf("controller: quantile %v out of (0,1)", quantile)
	}
	return &Predictor{Profile: prof, Surfaces: set, NMax: nMax, Quantile: quantile}, nil
}

// Features converts a pressure estimate and a load into the degradation
// features e_i = (L_i − base_i)/base_i of Eq. 6, where L_i is the surface
// lookup at (P_i, load) and base_i the same surface at zero pressure —
// isolating the contention effect from the service's own-load effect.
func (p *Predictor) Features(pressure [3]float64, load units.QPS) [3]float64 {
	var e [3]float64
	for i, sf := range p.Surfaces.Surfaces {
		base := sf.BaselineAt(load)
		l := sf.At(pressure[i], load)
		if base <= 0 {
			e[i] = 0
			continue
		}
		v := units.Ratio(l-base, base)
		if v < 0 {
			v = 0
		}
		e[i] = v
	}
	return e
}

// BaselineBody returns L₀(V_u): the mean body latency at the given load
// with zero ambient pressure — the service's own-load contention folded
// in, ambient contention excluded. Averaged over the three surfaces'
// zero-pressure rows (they estimate the same quantity independently).
func (p *Predictor) BaselineBody(load units.QPS) units.Seconds {
	s := units.Seconds(0)
	for _, sf := range p.Surfaces.Surfaces {
		s += sf.BaselineAt(load)
	}
	return s / 3
}

// Mu implements Eq. 6: μ_n = 1 / (L₀ · S + α) where S is the predicted
// ambient slowdown under the calibrated weights, L₀ the load-dependent
// baseline body time, and α the warm-path platform overheads. Both terms
// of the denominator are times (the slowdown S is dimensionless), so the
// reciprocal is a per-container rate.
func (p *Predictor) Mu(w monitor.Weights, pressure [3]float64, load units.QPS) units.ServiceRate {
	e := p.Features(pressure, load)
	s := w.Predict(e)
	l0 := p.BaselineBody(load)
	alpha := p.Profile.Overheads.Total()
	return units.ServiceRate(1 / (l0.Raw()*s + alpha))
}

// AdmissibleLoad returns λ(μ_n): the largest arrival rate the serverless
// platform can absorb for this service while keeping the QoS-quantile
// latency within target, given the current pressure. Because μ depends on
// the service's own load through the surfaces, the bound is found by a
// short fixed-point iteration.
func (p *Predictor) AdmissibleLoad(w monitor.Weights, pressure [3]float64) units.QPS {
	lambda := units.Scale(units.QPS(p.Profile.PeakQPS), 0.25) // starting guess
	for iter := 0; iter < 8; iter++ {
		mu := p.Mu(w, pressure, lambda)
		next := queueing.DiscriminantBisect(mu, p.NMax, units.Seconds(p.Profile.QoSTarget), p.Quantile)
		if next <= 0 {
			return 0
		}
		if diff := next - lambda; diff < 0.01 && diff > -0.01 {
			return next
		}
		lambda = next
	}
	return lambda
}

// Config tunes the deployment controller.
type Config struct {
	// LoadAlpha is the EWMA factor of the load estimator.
	LoadAlpha units.Fraction
	// SwitchInMargin: switch to serverless only when the load is below
	// this fraction of λ(μ_n) — hysteresis against flapping.
	//
	//amoeba:range (0,1]
	SwitchInMargin float64
	// SwitchOutMargin: switch back to IaaS when the load exceeds this
	// fraction of λ(μ_n). May exceed 1: running slightly past the
	// admissible load is how hysteresis avoids flapping.
	//
	//amoeba:range (0,1.5]
	SwitchOutMargin float64
}

// DefaultConfig returns the evaluation configuration.
func DefaultConfig() Config {
	return Config{
		LoadAlpha:       0.35,
		SwitchInMargin:  0.80,
		SwitchOutMargin: 0.95,
	}
}

// maxPostSwitchPressure bounds the predicted platform pressure after a
// switch-in; above it the switch would endanger co-located services
// (§III's safety rule).
const maxPostSwitchPressure = 0.90

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.LoadAlpha <= 0 || c.LoadAlpha > 1 {
		return fmt.Errorf("controller: load alpha %v out of (0,1]", c.LoadAlpha)
	}
	if c.SwitchInMargin <= 0 || c.SwitchInMargin >= c.SwitchOutMargin || c.SwitchOutMargin > 1.5 {
		return fmt.Errorf("controller: margins in=%v out=%v malformed (need 0 < in < out)",
			c.SwitchInMargin, c.SwitchOutMargin)
	}
	return nil
}

// Decision is the controller's verdict for one period.
type Decision struct {
	At             units.Seconds
	Target         metrics.Backend
	LoadQPS        units.QPS
	AdmissibleQPS  units.QPS
	Mu             units.ServiceRate
	Pressure       [3]float64
	WeightsLearned bool
	// Blocked is set when a switch-in was indicated by load but vetoed by
	// the co-tenant safety check.
	Blocked bool
	// Verdict names the outcome and Reason spells out the comparison
	// that produced it — the decision-audit trail's payload.
	Verdict Verdict
	Reason  string
	// Trace/Span address the decision as an instant span in the causal
	// trace; the switch span it orders points back at Span. Zero when
	// the run is untraced.
	Trace obs.TraceID
	Span  obs.SpanID
}

// Verdict classifies the outcome of one decision period. The set is
// closed: every fold over verdicts must handle all six members.
//
//amoeba:enum
type Verdict string

// Verdict values. The engine substitutes VerdictDwellHold when an
// indicated switch is suppressed by the minimum-dwell hysteresis.
const (
	VerdictSwitchIn       Verdict = "switch-in"
	VerdictSwitchOut      Verdict = "switch-out"
	VerdictStayIaaS       Verdict = "stay-iaas"
	VerdictStayServerless Verdict = "stay-serverless"
	VerdictBlocked        Verdict = "blocked"
	VerdictDwellHold      Verdict = "dwell-hold"
)

// Valid reports whether v is one of the six declared verdicts; decoders
// of externally supplied event streams use it to reject unknown values.
func (v Verdict) Valid() bool {
	switch v {
	case VerdictSwitchIn, VerdictSwitchOut, VerdictStayIaaS,
		VerdictStayServerless, VerdictBlocked, VerdictDwellHold:
		return true
	default:
		return false
	}
}

// Controller drives the decision loop for one service. It is fed load
// observations and pressure/weight estimates by the runtime and emits
// target-mode decisions; the execution engine carries them out.
type Controller struct {
	cfg       Config
	predictor *Predictor
	loadEWMA  units.QPS
	loadInit  bool
	tracer    *obs.Tracer
	decisions []Decision
}

// New creates a controller. The configuration is user-supplied, so
// validation failures are reported as errors.
func New(cfg Config, pred *Predictor) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if pred == nil {
		return nil, fmt.Errorf("controller: nil predictor")
	}
	return &Controller{cfg: cfg, predictor: pred}, nil
}

// Predictor exposes the prediction core.
func (c *Controller) Predictor() *Predictor { return c.predictor }

// ObserveLoad folds a fresh arrival-rate measurement (QPS over the last
// period) into the load estimate.
func (c *Controller) ObserveLoad(qps units.QPS) {
	if !c.loadInit {
		c.loadEWMA, c.loadInit = qps, true
		return
	}
	a := c.cfg.LoadAlpha.Raw()
	c.loadEWMA = units.Scale(qps, a) + units.Scale(c.loadEWMA, 1-a)
}

// Load returns the current load estimate V_u.
func (c *Controller) Load() units.QPS { return c.loadEWMA }

// SetTracer attaches the causal tracer; every decision then carries a
// fresh trace and span ID. A nil tracer (the default) leaves decisions
// untraced.
func (c *Controller) SetTracer(t *obs.Tracer) { c.tracer = t }

// Decide runs one decision period for a service deployed in mode, which
// the engine owns: it flips the mode when a switch completes.
// postSwitchPressure predicts the platform pressure if this service's
// serverless demand were added — the runtime computes it from the
// service's demand vector and the monitor's estimate; the controller
// vetoes switch-ins that would push any dimension past the safety bound.
// Decide panics if mode is outside the Backend enum — a decision from
// corrupted state must not reach the engine.
func (c *Controller) Decide(now units.Seconds, mode metrics.Backend, w monitor.Weights,
	pressure [3]float64, postSwitchPressure [3]float64) Decision {

	adm := c.predictor.AdmissibleLoad(w, pressure)
	mu := c.predictor.Mu(w, pressure, c.loadEWMA)
	d := Decision{
		At: now, LoadQPS: c.loadEWMA, AdmissibleQPS: adm, Mu: mu,
		Pressure: pressure, WeightsLearned: w.Learned, Target: mode,
		Trace: c.tracer.StartTrace(), Span: c.tracer.NextSpan(),
	}
	switch mode {
	case metrics.BackendIaaS:
		bound := units.Scale(adm, c.cfg.SwitchInMargin)
		if c.loadEWMA <= bound {
			unsafe, worst := -1, 0.0
			for i, p := range postSwitchPressure {
				if p > maxPostSwitchPressure && p > worst {
					unsafe, worst = i, p
				}
			}
			if unsafe < 0 {
				d.Target = metrics.BackendServerless
				d.Verdict = VerdictSwitchIn
				d.Reason = fmt.Sprintf("load %.2f <= %.2f (%.0f%% of admissible %.2f), post-switch pressure within %.2f",
					c.loadEWMA.Raw(), bound.Raw(), c.cfg.SwitchInMargin*100, adm.Raw(), maxPostSwitchPressure)
			} else {
				d.Blocked = true
				d.Verdict = VerdictBlocked
				d.Reason = fmt.Sprintf("post-switch %s pressure %.2f exceeds safety bound %.2f",
					resourceNames[unsafe], worst, maxPostSwitchPressure)
			}
		} else {
			d.Verdict = VerdictStayIaaS
			d.Reason = fmt.Sprintf("load %.2f above switch-in bound %.2f (%.0f%% of admissible %.2f)",
				c.loadEWMA.Raw(), bound.Raw(), c.cfg.SwitchInMargin*100, adm.Raw())
		}
	case metrics.BackendServerless:
		bound := units.Scale(adm, c.cfg.SwitchOutMargin)
		if c.loadEWMA > bound {
			d.Target = metrics.BackendIaaS
			d.Verdict = VerdictSwitchOut
			d.Reason = fmt.Sprintf("load %.2f above switch-out bound %.2f (%.0f%% of admissible %.2f)",
				c.loadEWMA.Raw(), bound.Raw(), c.cfg.SwitchOutMargin*100, adm.Raw())
		} else {
			d.Verdict = VerdictStayServerless
			d.Reason = fmt.Sprintf("load %.2f within switch-out bound %.2f (%.0f%% of admissible %.2f)",
				c.loadEWMA.Raw(), bound.Raw(), c.cfg.SwitchOutMargin*100, adm.Raw())
		}
	default:
		panic(fmt.Sprintf("controller: invalid mode %v", mode))
	}
	c.decisions = append(c.decisions, d)
	return d
}

// resourceNames label the pressure dimensions in decision reasons.
var resourceNames = [3]string{"cpu", "io", "net"}

// Decisions returns the decision history.
func (c *Controller) Decisions() []Decision { return c.decisions }
