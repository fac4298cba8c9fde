// Package engine implements the hybrid execution engine (§V): per
// service, it routes queries to the active backend, carries out the
// switch protocol — prewarm containers (Eq. 7), wait for the
// acknowledgement, flip the route, drain and release the old backend —
// and feeds the controller and the monitor with load observations and
// heartbeat packages.
//
// While a service is IaaS-deployed, the engine mirrors a small sample of
// its queries to the serverless platform as *shadow* queries (the paper's
// step 1: "Amoeba also routes queries of S_a to the serverless platform,
// and collects the ... resource consumption"). Shadow latencies never
// reach the user-visible statistics; they exist to keep the weight
// calibration fed before any real switch happens.
package engine

import (
	"fmt"

	"amoeba/internal/controller"
	"amoeba/internal/iaas"
	"amoeba/internal/metrics"
	"amoeba/internal/monitor"
	"amoeba/internal/obs"
	"amoeba/internal/queueing"
	"amoeba/internal/resources"
	"amoeba/internal/serverless"
	"amoeba/internal/sim"
	"amoeba/internal/units"
	"amoeba/internal/workload"
)

// Config tunes the engine.
type Config struct {
	// SamplePeriod is the heartbeat/decision cadence (bounded below by
	// Eq. 8; core computes it).
	SamplePeriod units.Seconds
	// ShadowFraction of IaaS-mode queries is mirrored to serverless.
	//
	//amoeba:range [0,0.5]
	ShadowFraction units.Fraction
	// ShadowMaxQPS caps the mirrored load.
	ShadowMaxQPS units.QPS
	// Prewarm enables the container prewarm module; disabling it
	// reproduces Amoeba-NoP (§VII-D).
	Prewarm bool
	// MinDwell is the minimum time between consecutive switches —
	// hysteresis against mode flapping when the load sits near λ(μ_n).
	MinDwell units.Seconds
	// Capacity is the serverless node capacity, used to predict the
	// pressure this service would add after a switch-in.
	Capacity resources.Vector
}

// DefaultConfig returns the evaluation configuration for the given
// serverless node capacity.
func DefaultConfig(capacity resources.Vector) Config {
	return Config{
		SamplePeriod:   10,
		ShadowFraction: 0.05,
		ShadowMaxQPS:   1.0,
		Prewarm:        true,
		MinDwell:       120,
		Capacity:       capacity,
	}
}

// The switch protocol's fixed settings.
const (
	// prewarmHeadroom adds containers beyond Eq. 7's n "for burst
	// invocations" (§V-A).
	prewarmHeadroom = 1
	// drainPoll is the polling period while draining a backend.
	drainPoll units.Seconds = 0.5
	// warmupPeriods is how many sample periods must pass before the
	// first switch decision: the monitor's meter EWMA and the load
	// estimate need a few samples to converge, and an early decision on
	// a stale pressure estimate can walk into a saturated pool (the
	// paper's step 1 keeps IaaS while data is collected).
	warmupPeriods = 3
)

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.SamplePeriod <= 0 {
		return fmt.Errorf("engine: non-positive sample period")
	}
	if c.ShadowFraction < 0 || c.ShadowFraction > 0.5 {
		return fmt.Errorf("engine: shadow fraction %v out of [0, 0.5]", c.ShadowFraction)
	}
	if c.ShadowMaxQPS < 0 {
		return fmt.Errorf("engine: negative shadow cap")
	}
	if c.MinDwell < 0 {
		return fmt.Errorf("engine: negative min dwell")
	}
	if c.Capacity.CPU <= 0 {
		return fmt.Errorf("engine: missing node capacity")
	}
	return nil
}

// ShadowSuffix names the mirrored twin of a function on the pool.
const ShadowSuffix = "#shadow"

// Engine drives one service.
type Engine struct {
	sim    *sim.Simulator
	pool   *serverless.Platform
	vms    *iaas.Platform
	cfg    Config
	prof   workload.Profile
	ctrl   *controller.Controller
	mon    *monitor.Monitor
	rng    *sim.RNG
	bus    *obs.Bus
	tracer *obs.Tracer

	// The service's route on each backend and its shadow twin's route on
	// the pool, bound once in New.
	toIaaS       iaas.Invoker
	toServerless serverless.Invoker
	toShadow     serverless.Invoker
	shadowName   string

	Collector *metrics.Collector
	Timeline  *metrics.Timeline
	// Windowed tracks the violation rate in 60 s windows: cold-start
	// storms after a switch show up as single hot windows (Fig. 16's
	// time-resolved view).
	Windowed *metrics.WindowedViolations

	mode       metrics.Backend
	switching  bool
	lastSwitch float64
	// retryH is the open retry phase span while the controller's wish to
	// switch is being held by dwell hysteresis — the causal record of
	// "this decision kept being re-made until the dwell expired".
	retryH obs.SpanHandle

	arrivals      int     // since last tick
	ticks         int     // sample periods elapsed
	shadowSent    float64 // shadow tokens spent this period (count)
	execSum       float64 // warm serverless body time since last tick
	execN         int
	switchBlocked int
}

// New wires an engine for one service. The service must already be
// registered on the pool and deployed on the IaaS platform by the caller
// (core does this); the engine registers only the shadow twin.
// It panics if the config fails validation, or if the service is not
// registered on the pool or not deployed on the IaaS platform.
func New(s *sim.Simulator, pool *serverless.Platform, vms *iaas.Platform,
	prof workload.Profile, ctrl *controller.Controller, mon *monitor.Monitor, cfg Config) *Engine {

	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	e := &Engine{
		sim: s, pool: pool, vms: vms, cfg: cfg, prof: prof,
		ctrl: ctrl, mon: mon,
		rng:       s.RNG().Split(),
		Collector: metrics.NewCollector(prof.Name, prof.QoSTarget),
		Timeline:  &metrics.Timeline{},
		Windowed:  metrics.NewWindowedViolations(60, prof.QoSTarget),
		mode:      metrics.BackendIaaS,
	}
	e.toIaaS = vms.Bind(prof.Name)
	e.toServerless = pool.Bind(prof.Name)
	if cfg.ShadowFraction > 0 {
		shadow := prof
		shadow.Name = prof.Name + ShadowSuffix
		pool.Register(shadow, e.observeServerlessBody, serverless.WithNMax(4))
		e.toShadow = pool.Bind(shadow.Name)
		e.shadowName = shadow.Name
	}
	return e
}

// SetBus attaches the telemetry bus; the engine emits one DecisionEvent
// per decision period and one SwitchSpan per mode transition. A nil bus
// (the default) keeps emission sites on their zero-cost path.
func (e *Engine) SetBus(b *obs.Bus) { e.bus = b }

// SetTracer attaches the causal tracer; decision events gain trace
// coordinates, switch spans link back to the decision that caused them,
// and dwell-held decisions open a retry phase span. A nil tracer (the
// default) keeps every site on its zero-cost path.
func (e *Engine) SetTracer(t *obs.Tracer) { e.tracer = t }

// OnServerlessComplete must be passed as the pool completion callback for
// the primary function registration.
func (e *Engine) OnServerlessComplete(r metrics.QueryRecord) {
	e.Collector.Observe(r)
	e.Windowed.Observe(float64(e.sim.Now()), r)
	e.observeServerlessBody(r)
}

// OnIaaSComplete must be passed as the IaaS completion callback.
func (e *Engine) OnIaaSComplete(r metrics.QueryRecord) {
	e.Collector.Observe(r)
	e.Windowed.Observe(float64(e.sim.Now()), r)
}

func (e *Engine) observeServerlessBody(r metrics.QueryRecord) {
	if r.Breakdown.ColdStart > 0 {
		return // cold starts say nothing about contention (Eq. 8's worry)
	}
	e.execSum += r.Breakdown.Exec
	e.execN++
}

// Start begins the periodic sample/decide loop.
func (e *Engine) Start() {
	e.sim.Every(e.cfg.SamplePeriod.Raw(), e.tick)
}

// HandleQuery routes one arriving query. It panics if the routing mode
// is outside the Backend enum — a query silently dropped by a corrupted
// mode would skew every latency figure downstream.
//
//amoeba:noalloc
func (e *Engine) HandleQuery() {
	e.arrivals++
	switch e.mode {
	case metrics.BackendIaaS:
		e.toIaaS.Invoke()
		e.maybeShadow()
	case metrics.BackendServerless:
		e.toServerless.Invoke()
	default:
		//amoeba:allowalloc(cold panic path: message boxing fires only on a corrupted mode)
		panic(fmt.Sprintf("engine: invalid routing mode %v", e.mode))
	}
}

// maybeShadow mirrors the query to the shadow twin, within the shadow
// fraction and the per-period budget.
//
//amoeba:noalloc
func (e *Engine) maybeShadow() {
	if e.cfg.ShadowFraction <= 0 {
		return
	}
	budget := e.cfg.ShadowMaxQPS.InWindow(e.cfg.SamplePeriod)
	if e.shadowSent >= budget {
		return
	}
	if e.rng.Float64() < e.cfg.ShadowFraction.Raw() {
		e.shadowSent++
		e.toShadow.Invoke()
	}
}

// Controller exposes the service's deployment controller.
func (e *Engine) Controller() *controller.Controller { return e.ctrl }

// BlockedSwitches counts switch-ins vetoed by the co-tenant safety check.
func (e *Engine) BlockedSwitches() int { return e.switchBlocked }

// tick is one sample period: heartbeat to the monitor, load to the
// controller, then a decision.
func (e *Engine) tick() {
	now := units.Seconds(e.sim.Now())
	qps := units.QPS(float64(e.arrivals) / e.cfg.SamplePeriod.Raw())
	e.arrivals = 0
	e.shadowSent = 0
	e.ctrl.ObserveLoad(qps)

	ambient := e.ambientPressure()

	// Heartbeat: observed body slowdown vs surface-predicted features. A
	// couple of samples say nothing (the body time is log-normal with
	// CV up to 0.25); demand at least 3 before reporting, or the monitor
	// would calibrate on noise.
	if e.execN >= 3 {
		// Both the features and the target are normalised against the
		// same load-dependent baseline, so the regression learns the
		// *ambient* contention effect, not the service's own-load one.
		base := e.ctrl.Predictor().BaselineBody(e.ctrl.Load())
		observed := (e.execSum / float64(e.execN)) / base.Raw()
		feat := e.ctrl.Predictor().Features(ambient, e.ctrl.Load())
		e.mon.Heartbeat(e.prof.Name, feat, observed)
		e.execSum, e.execN = 0, 0
	}

	e.Timeline.RecordSnapshot(metrics.Snapshot{
		At: now.Raw(), Mode: e.mode, LoadQPS: e.ctrl.Load().Raw(), Alloc: e.currentAlloc(),
	})

	e.ticks++
	if e.ticks <= warmupPeriods {
		return // estimates not trustworthy yet; stay on IaaS (step 1)
	}
	if e.switching {
		return // let the in-flight transition finish first
	}
	post := ambient
	for i, own := range e.ownPressure() {
		post[i] += own
	}
	w := e.mon.WeightsFor(e.prof.Name)
	d := e.ctrl.Decide(now, e.mode, w, ambient, post)
	if d.Blocked {
		e.switchBlocked++
	}
	dwellOK := now-units.Seconds(e.lastSwitch) >= e.cfg.MinDwell || e.lastSwitch == 0
	if e.bus.Active() {
		verdict, reason := d.Verdict, d.Reason
		if d.Target != e.mode && !dwellOK {
			// The controller wants a switch but the engine's hysteresis
			// holds it — audit the suppression, not the wish.
			verdict = controller.VerdictDwellHold
			reason = fmt.Sprintf("%s held: %.0fs since last switch < min dwell %.0fs",
				d.Verdict, (now - units.Seconds(e.lastSwitch)).Raw(), e.cfg.MinDwell.Raw())
		}
		e.bus.Emit(&obs.DecisionEvent{
			At:             now,
			Trace:          d.Trace,
			Span:           d.Span,
			MeterSpan:      e.mon.LastMeterSpan(),
			Service:        e.prof.Name,
			Mode:           e.mode.String(),
			Target:         d.Target.String(),
			LoadQPS:        d.LoadQPS,
			AdmissibleQPS:  d.AdmissibleQPS,
			Mu:             d.Mu,
			NMax:           e.ctrl.Predictor().NMax,
			Pressure:       ambient,
			PostPressure:   post,
			Weights:        w.W,
			Intercept:      w.Intercept,
			WeightsLearned: w.Learned,
			Blocked:        d.Blocked,
			Verdict:        string(verdict),
			Reason:         reason,
		})
	}
	// Retry phase span: opened when the controller first wishes to switch
	// but the dwell holds it, closed (and emitted) when the wish either
	// proceeds or subsides. Its cause edge points at the decision span
	// that opened it.
	if d.Target != e.mode && !dwellOK {
		if !e.retryH.Open() {
			e.retryH = e.tracer.Begin(now, d.Trace, 0, d.Span, obs.PhaseRetry, e.prof.Name, e.mode.String())
		}
	} else if e.retryH.Open() {
		e.tracer.End(now, e.retryH)
		e.retryH = obs.SpanHandle{}
	}
	if d.Target != e.mode && dwellOK {
		e.startSwitch(d.Target, d.LoadQPS, d.Trace, d.Span)
	}
}

// ambientPressure is the monitor's estimate with this service's own
// serverless contribution removed. The latency surfaces are profiled with
// the service *running at V_u* on top of an injected ambient pressure, so
// feeding them the raw estimate while the service itself is serverless
// would double-count its own demand — and make the controller oscillate:
// switch in, see its own pressure, switch out.
func (e *Engine) ambientPressure() [3]float64 {
	p := e.mon.Pressure()
	if e.mode != metrics.BackendServerless {
		return p
	}
	own := e.ownPressure()
	for i := range p {
		p[i] -= own[i]
		if p[i] < 0 {
			p[i] = 0
		}
	}
	return p
}

// ownPressure estimates the pressure this service's serverless demand adds
// at the current load (Little's law: concurrency = load × busy time).
func (e *Engine) ownPressure() [3]float64 {
	conc := e.ctrl.Load().InWindow(units.Seconds(e.prof.ExecTime + e.prof.Overheads.Total()))
	d := e.prof.Demand.Scale(conc)
	return [3]float64{
		d.CPU / e.cfg.Capacity.CPU,
		d.DiskMBs / e.cfg.Capacity.DiskMBs,
		d.NetMbs / e.cfg.Capacity.NetMbs,
	}
}

func (e *Engine) currentAlloc() resources.Vector {
	alloc := e.vms.AllocFor(e.prof.Name)
	alloc = alloc.Add(e.pool.AllocFor(e.prof.Name))
	if e.cfg.ShadowFraction > 0 {
		alloc = alloc.Add(e.pool.AllocFor(e.shadowName))
	}
	return alloc
}

// startSwitch runs the §V-B protocol towards the target backend. It
// panics on a target outside the Backend enum: the controller only ever
// decides between the two real deployments. dTrace/dSpan are the
// deciding DecisionEvent's trace coordinates (zero when untraced); the
// switch span joins that trace and registers itself as the causal
// displacer of the service's queries until the drain completes.
func (e *Engine) startSwitch(target metrics.Backend, load units.QPS, dTrace obs.TraceID, dSpan obs.SpanID) {
	e.switching = true
	e.lastSwitch = float64(e.sim.Now())
	// The span is tracked per switch and carried through the protocol's
	// callbacks — a field would be clobbered if the next switch began
	// while the previous drain was still in flight. nil when unobserved.
	var sp *obs.SwitchSpan
	if e.bus.Active() {
		sp = &obs.SwitchSpan{
			Trace:    dTrace,
			Span:     e.tracer.NextSpan(),
			Decision: dSpan,
			Service:  e.prof.Name,
			From:     e.mode.String(),
			To:       target.String(),
			Start:    units.Seconds(e.sim.Now()),
			LoadQPS:  load,
		}
		e.tracer.SetCause(e.prof.Name, sp.Span)
	}
	switch target {
	case metrics.BackendServerless:
		// S_pw: prewarm per Eq. 7 plus headroom, flip on acknowledgement.
		flip := func() {
			e.mode = metrics.BackendServerless
			e.switching = false
			e.Timeline.RecordSwitch(float64(e.sim.Now()), target, load.Raw())
			// The IaaS side drains its in-flight queries, then releases
			// the VMs (S_sd). The drain is a phase span parented to the
			// switch span: [flip, stop acknowledgement].
			var onStopped func()
			if sp != nil {
				sp.FlipAt = units.Seconds(e.sim.Now())
				sp.PrewarmS = sp.FlipAt - sp.Start
				drainH := e.tracer.Begin(sp.FlipAt, sp.Trace, sp.Span, 0,
					obs.PhaseDrain, e.prof.Name, metrics.BackendIaaS.String())
				onStopped = func() {
					e.tracer.End(units.Seconds(e.sim.Now()), drainH)
					e.closeSpan(sp, false)
				}
			}
			e.vms.Stop(e.prof.Name, onStopped)
		}
		if e.cfg.Prewarm {
			n := queueing.PrewarmCount(load, units.Seconds(e.prof.QoSTarget)) + prewarmHeadroom
			started := e.pool.Prewarm(e.prof.Name, n, flip)
			if sp != nil {
				sp.Prewarmed = started
			}
		} else {
			flip() // Amoeba-NoP: route immediately, cold starts and all
		}
	case metrics.BackendIaaS:
		// Boot the VM group; queries keep flowing to serverless until the
		// acknowledgement arrives.
		e.vms.Start(e.prof.Name, func() {
			e.mode = metrics.BackendIaaS
			e.switching = false
			e.Timeline.RecordSwitch(float64(e.sim.Now()), target, load.Raw())
			var drainH obs.SpanHandle
			if sp != nil {
				sp.FlipAt = units.Seconds(e.sim.Now())
				sp.PrewarmS = sp.FlipAt - sp.Start
				drainH = e.tracer.Begin(sp.FlipAt, sp.Trace, sp.Span, 0,
					obs.PhaseDrain, e.prof.Name, metrics.BackendServerless.String())
			}
			e.drainServerless(sp, drainH)
		})
	default:
		panic(fmt.Sprintf("engine: switch to invalid backend %v", target))
	}
}

// closeSpan stamps the release instant on a tracked switch span, emits
// it, and unregisters it as the service's displacing cause. sp is nil
// when the switch began unobserved.
func (e *Engine) closeSpan(sp *obs.SwitchSpan, aborted bool) {
	if sp == nil {
		return
	}
	e.tracer.ClearCause(e.prof.Name, sp.Span)
	now := units.Seconds(e.sim.Now())
	sp.At, sp.End = now, now
	sp.DrainS = now - sp.FlipAt
	sp.Aborted = aborted
	e.bus.Emit(sp)
}

// drainServerless releases the service's warm containers once its
// in-flight activations finish (S_sd for the serverless side). sp is the
// switch span being tracked (nil when unobserved); drainH is its open
// drain phase span (inert when untraced).
func (e *Engine) drainServerless(sp *obs.SwitchSpan, drainH obs.SpanHandle) {
	var poll func()
	poll = func() {
		if e.mode != metrics.BackendIaaS {
			// Switched back meanwhile; keep the containers.
			e.tracer.End(units.Seconds(e.sim.Now()), drainH)
			e.closeSpan(sp, true)
			return
		}
		if e.pool.Inflight(e.prof.Name) == 0 {
			e.pool.ReleaseIdle(e.prof.Name)
			e.tracer.End(units.Seconds(e.sim.Now()), drainH)
			e.closeSpan(sp, false)
			return
		}
		e.sim.After(drainPoll.Raw(), poll)
	}
	poll()
}
