// Package serverless simulates the shared FaaS platform (the paper's
// modified Apache OpenWhisk, §V): a memory-bounded pool of per-function
// containers fed by an unbounded FIFO activation queue. The queue is kept
// per function and served in global arrival order (DESIGN.md §17).
//
// Lifecycle per the paper's Fig. 7: an arriving query is enqueued; a ready
// (warm) container picks it up, otherwise the platform cold-starts a new
// container — allocating its 256 MB (Table II), paying the cold-start
// delay — and the query runs there. A container executes one activation
// at a time and stays warm for an idle window after finishing, then is
// reclaimed: the pool keeps no warm floor (DESIGN.md §20). Reuse of warm
// containers is the platform's main defence against cold starts, and the
// prewarm API lets Amoeba's execution engine warm capacity *before*
// routing queries (§V-A).
//
// While a function body executes, its resource demand joins the
// platform-wide aggregate; the contention model converts the aggregate
// into per-resource pressure and a latency multiplier, sampled when the
// body starts (frozen-at-dispatch, see DESIGN.md).
package serverless

import (
	"fmt"
	"math"

	"amoeba/internal/cluster"
	"amoeba/internal/contention"
	"amoeba/internal/fifo"
	"amoeba/internal/metrics"
	"amoeba/internal/obs"
	"amoeba/internal/queueing"
	"amoeba/internal/resources"
	"amoeba/internal/sim"
	"amoeba/internal/units"
	"amoeba/internal/workload"
)

// Config tunes the platform: the node, the cold-start and idle-reclaim
// timings, and the per-tenant and memory bounds of §IV-A and Table II.
// Nothing caps the activation queue.
type Config struct {
	Node cluster.Node

	// ColdStartMean and ColdStartCV parameterise the log-normal cold
	// start delay. The paper (§V-A) quotes one to three seconds.
	ColdStartMean units.Seconds
	ColdStartCV   float64

	// CodeLoadColdFactor multiplies a function's hot code-load time on
	// the cold path (pulling the image vs touching the cache).
	CodeLoadColdFactor float64

	// IdleTimeout is how long a warm container lingers before reclaim.
	IdleTimeout units.Seconds

	// Delta is the per-tenant share bound; n_max = min(1/Delta, M0/M1)
	// (§IV-A).
	Delta units.Fraction

	// ContainerMemMB is the fixed container size (Table II: 256 MB).
	ContainerMemMB units.MegaBytes

	// MemReserve is the fraction of node memory kept for the platform
	// itself; containers may use the rest.
	MemReserve units.Fraction
}

// DefaultConfig returns the Table II / §V configuration.
func DefaultConfig() Config {
	return Config{
		Node:               cluster.DefaultNode("serverless"),
		ColdStartMean:      1.2,
		ColdStartCV:        0.25,
		CodeLoadColdFactor: 8,
		IdleTimeout:        60,
		Delta:              0.10,
		ContainerMemMB:     workload.ContainerMemMB,
		MemReserve:         0.10,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Node.Validate(); err != nil {
		return err
	}
	if c.ColdStartMean <= 0 || c.ColdStartCV < 0 {
		return fmt.Errorf("serverless: invalid cold start %v/%v", c.ColdStartMean, c.ColdStartCV)
	}
	if c.IdleTimeout <= 0 {
		return fmt.Errorf("serverless: non-positive idle timeout")
	}
	if c.Delta <= 0 || c.Delta > 1 {
		return fmt.Errorf("serverless: delta %v out of (0,1]", c.Delta)
	}
	if c.ContainerMemMB <= 0 {
		return fmt.Errorf("serverless: non-positive container memory")
	}
	if c.MemReserve < 0 || c.MemReserve >= 1 {
		return fmt.Errorf("serverless: mem reserve %v out of [0,1)", c.MemReserve)
	}
	return nil
}

// backendName labels the platform's spans and events.
var backendName = metrics.BackendServerless.String()

type containerState int

const (
	stateColdStarting containerState = iota
	statePrewarming
	stateIdle
	stateBusy
	stateDead
)

type container struct {
	id     int
	fn     *function
	state  containerState
	idleAt sim.Time
	stamp  sim.Stamp   // reserved at idleAt: the tie-break of its reclaim
	bound  *activation // query waiting for this cold start

	// Per-activation scratch, valid while state == stateBusy. The finish
	// callback is built once per container so the warm execute path
	// schedules kernel events without allocating closures.
	arrived sim.Time
	bd      metrics.Breakdown
	demand  resources.Vector
	qt      obs.QueryTrace // trace context of the running activation
	execH   obs.SpanHandle // open exec phase span
	coldH   obs.SpanHandle // open cold-start phase span (cold path only)
	finish  func()         // completes the running activation
}

type activation struct {
	fn      *function
	seq     uint64 // platform-wide arrival order, stamped at Invoke
	arrived sim.Time
	qt      obs.QueryTrace // trace context opened at Invoke
	queueH  obs.SpanHandle // open queue-wait phase span
}

type function struct {
	profile workload.Profile
	order   int // registration index
	// execMu and execSigma are the lognormal parameters of the body's
	// execution time, precomputed once at Register so the per-activation
	// hot path draws without re-deriving them.
	execMu     float64
	execSigma  float64
	nMax       int
	onComplete func(metrics.QueryRecord)
	// idle holds the warm containers in the order they went idle;
	// deadline reclaims idle[0] (DESIGN.md §20).
	idle       []*container
	deadline   sim.EventHandle
	expire     func() // fires the deadline; built once at Register
	containers int    // live containers (any state)
	usage      *resources.Usage
	inflight   int

	queue      fifo.Ring[*activation] // waiting activations, oldest first
	waiting    bool                   // listed in Platform.waiting
	blockedGen uint64                 // pump generation in which the head failed to place
}

// Platform is the simulated serverless computing platform.
type Platform struct {
	sim   *sim.Simulator
	cfg   Config
	model *contention.Model
	// normals holds the standard normals behind every cold-start delay
	// and body time, in the order the two sites take them (DESIGN.md §22).
	normals *sim.Stream
	bus     *obs.Bus
	tracer  *obs.Tracer
	// done is the QueryComplete finishExec emits, overwritten per query:
	// sinks borrow events only until Consume returns.
	done obs.QueryComplete
	fns  map[string]*function
	// registered lists the functions in registration order, the order
	// every iteration over functions uses.
	registered []*function
	// coldMu and coldSigma are the lognormal parameters of the cold-start
	// delay, precomputed once at New from the validated config.
	coldMu    float64
	coldSigma float64
	actFree   []*activation    // recycled activations (steady state allocates none)
	demand    resources.Vector // aggregate demand of running bodies
	memMB     float64          // memory allocated by live containers
	nextID    int
	// waiting lists the functions with a non-empty queue in registration
	// order; queued counts their activations and seq stamps arrivals.
	waiting []*function
	queued  int
	seq     uint64
	pumpGen uint64
	// pumpProbe, when set, observes every pump's place attempts,
	// placements, and waiting functions at its start (tests).
	pumpProbe func(attempts, placed, waiting int)
	// sharedMode freezes the pressure seen by executing bodies at the
	// externally supplied sharedPressure instead of deriving it from the
	// platform's own aggregate demand. The sharded runtime (core.RunSharded)
	// runs one platform per service shard and refreshes this value at every
	// epoch barrier with the pressure of the summed cross-shard demand, so
	// shards couple only through the barrier (DESIGN.md §15).
	sharedMode     bool
	sharedPressure contention.Pressure
}

// New creates a platform on the given simulator. It panics if the
// config fails validation.
func New(s *sim.Simulator, cfg Config) *Platform {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	coldMu, coldSigma := sim.LognormalParams(cfg.ColdStartMean.Raw(), cfg.ColdStartCV)
	return &Platform{
		sim:       s,
		cfg:       cfg,
		model:     contention.NewModel(cfg.Node.Capacity()),
		normals:   sim.NewStream(s.RNG().Split(), sim.StdNormals),
		fns:       make(map[string]*function),
		coldMu:    coldMu,
		coldSigma: coldSigma,
	}
}

// SetBus attaches the telemetry bus; the platform emits QueryComplete on
// every finished activation and ColdStart on every container start. A
// nil bus (the default) keeps emission sites on their zero-cost path.
func (p *Platform) SetBus(b *obs.Bus) { p.bus = b }

// SetTracer attaches the causal tracer; every invocation then opens a
// trace with queue-wait/cold-start/exec phase spans. A nil tracer (the
// default) keeps every span site on its zero-cost guarded path.
func (p *Platform) SetTracer(t *obs.Tracer) { p.tracer = t }

// RegisterOption customises a function registration.
type RegisterOption func(*function)

// WithNMax overrides the per-function container cap (used by experiments
// that equalise serverless and IaaS resources, e.g. Fig. 3).
// It panics during Register if the cap is not positive.
func WithNMax(n int) RegisterOption {
	return func(f *function) {
		if n <= 0 {
			panic("serverless: WithNMax requires a positive cap")
		}
		f.nMax = n
	}
}

// Register adds a function to the platform. onComplete receives every
// finished activation (may be nil). It panics if the profile is invalid
// or the function is already registered.
func (p *Platform) Register(profile workload.Profile, onComplete func(metrics.QueryRecord), opts ...RegisterOption) {
	if err := profile.Validate(); err != nil {
		panic(err)
	}
	if _, dup := p.fns[profile.Name]; dup {
		panic(fmt.Sprintf("serverless: duplicate function %q", profile.Name))
	}
	nMax, err := queueing.MaxContainers(p.cfg.Delta, p.usableMemMB(), p.cfg.ContainerMemMB)
	if err != nil {
		panic(err)
	}
	execMu, execSigma := sim.LognormalParams(profile.ExecTime, profile.ExecCV)
	f := &function{
		profile:    profile,
		execMu:     execMu,
		execSigma:  execSigma,
		nMax:       nMax,
		onComplete: onComplete,
		usage:      resources.NewUsage(float64(p.sim.Now())),
	}
	for _, opt := range opts {
		opt(f)
	}
	f.order = len(p.registered)
	f.expire = func() { p.expire(f) }
	p.fns[profile.Name] = f
	p.registered = append(p.registered, f)
}

func (p *Platform) usableMemMB() units.MegaBytes {
	return units.Scale(units.MegaBytes(p.cfg.Node.MemMB), 1-p.cfg.MemReserve.Raw())
}

// mustFn looks up a registered function. It panics on an unknown name:
// invoking a function that was never registered is a wiring bug.
func (p *Platform) mustFn(name string) *function {
	f, ok := p.fns[name]
	if !ok {
		panic(fmt.Sprintf("serverless: unknown function %q", name))
	}
	return f
}

// Invoker submits queries to one registered function. Bind resolves the
// function once, when the caller is wired, so a query pays for no name
// lookup.
type Invoker struct {
	p *Platform
	f *function
}

// Bind returns an invoker for the named function. It panics if the
// function is not registered: routing to a function that was never
// registered is a wiring bug, caught at wiring rather than at the first
// query.
func (p *Platform) Bind(name string) Invoker {
	return Invoker{p: p, f: p.mustFn(name)}
}

// Invoke submits one query.
//
//amoeba:noalloc
func (i Invoker) Invoke() {
	p, f := i.p, i.f
	f.inflight++
	//amoeba:allowalloc(pool miss: an activation is built once per in-flight high-water mark)
	act := p.takeActivation(f)
	p.seq++
	act.seq = p.seq
	act.qt = p.tracer.StartQuery(f.profile.Name)
	act.queueH = p.tracer.Begin(units.Seconds(act.arrived), act.qt.Trace, act.qt.Span, 0,
		obs.PhaseQueueWait, f.profile.Name, backendName)
	if p.queued == 0 {
		// Nothing waits: a pump would try only this activation.
		if !p.place(act) {
			p.enqueue(act)
		}
		return
	}
	p.enqueue(act)
	p.pump()
}

// takeActivation reuses a recycled activation or allocates a fresh one.
func (p *Platform) takeActivation(f *function) *activation {
	if n := len(p.actFree); n > 0 {
		act := p.actFree[n-1]
		p.actFree = p.actFree[:n-1]
		act.fn = f
		act.arrived = p.sim.Now()
		return act
	}
	return &activation{fn: f, arrived: p.sim.Now()}
}

// putActivation recycles an activation once execute has copied what it
// needs out of it.
func (p *Platform) putActivation(act *activation) {
	act.fn = nil
	act.qt = obs.QueryTrace{}
	act.queueH = obs.SpanHandle{}
	p.actFree = append(p.actFree, act)
}

// place tries to run or bind the activation; reports success.
func (p *Platform) place(act *activation) bool {
	f := act.fn
	// 1. Reuse a warm container.
	if n := len(f.idle); n > 0 {
		c := f.idle[n-1] // most recently used: best cache behaviour
		p.removeIdle(f, n-1)
		p.tracer.End(units.Seconds(p.sim.Now()), act.queueH)
		act.queueH = obs.SpanHandle{}
		p.execute(c, act, 0)
		return true
	}
	if f.containers >= f.nMax {
		return false
	}
	// 2. Cold start a new container if memory allows, evicting another
	// function's longest-idle container when the pool is full.
	if !p.memAvailable() && !p.evictIdle(f) {
		return false
	}
	if !p.memAvailable() {
		return false
	}
	c := p.newContainer(f, stateColdStarting)
	c.bound = act
	// The queue phase ends at binding; the cold-start phase covers the
	// bound wait for the container.
	nowS := units.Seconds(p.sim.Now())
	p.tracer.End(nowS, act.queueH)
	act.queueH = obs.SpanHandle{}
	c.coldH = p.tracer.Begin(nowS, act.qt.Trace, act.qt.Span, 0,
		obs.PhaseColdStart, f.profile.Name, backendName)
	delay := p.sampleColdStart()
	p.sim.After(delay, func() {
		p.tracer.End(units.Seconds(p.sim.Now()), c.coldH)
		c.coldH = obs.SpanHandle{}
		if c.state == stateDead {
			return
		}
		if p.bus.Active() {
			p.bus.Emit(&obs.ColdStart{
				At:      units.Seconds(p.sim.Now()),
				Service: c.fn.profile.Name,
				Delay:   units.Seconds(delay),
			})
		}
		bound := c.bound
		c.bound = nil
		if bound == nil {
			p.makeIdle(c)
			p.pump()
			return
		}
		p.execute(c, bound, delay)
	})
	return true
}

func (p *Platform) memAvailable() bool {
	return units.MegaBytes(p.memMB)+p.cfg.ContainerMemMB <= p.usableMemMB()
}

// evictIdle destroys the longest-idle warm container belonging to any
// *other* function, the lowest container id breaking ties; reports
// whether one was found.
func (p *Platform) evictIdle(requester *function) bool {
	var victim *container
	for _, f := range p.registered {
		if f == requester {
			continue
		}
		for _, c := range f.idle {
			if victim == nil || c.idleAt < victim.idleAt ||
				(c.idleAt == victim.idleAt && c.id < victim.id) {
				victim = c
			}
		}
	}
	if victim == nil {
		return false
	}
	p.destroy(victim)
	return true
}

func (p *Platform) newContainer(f *function, st containerState) *container {
	p.nextID++
	c := &container{id: p.nextID, fn: f, state: st}
	c.finish = func() { p.finishExec(c) }
	f.containers++
	p.memMB += p.cfg.ContainerMemMB.Raw()
	f.usage.Adjust(float64(p.sim.Now()), resources.Vector{MemMB: p.cfg.ContainerMemMB.Raw()})
	return c
}

func (p *Platform) destroy(c *container) {
	if c.state == stateDead {
		return
	}
	if c.state == stateIdle {
		// Search from the most recently idled end: ReleaseIdle destroys
		// the tail, which then costs O(1).
		f := c.fn
		for i := len(f.idle) - 1; i >= 0; i-- {
			if f.idle[i] == c {
				p.removeIdle(f, i)
				break
			}
		}
	}
	c.state = stateDead
	c.fn.containers--
	p.memMB -= p.cfg.ContainerMemMB.Raw()
	c.fn.usage.Adjust(float64(p.sim.Now()), resources.Vector{MemMB: -p.cfg.ContainerMemMB.Raw()})
}

// makeIdle appends c to its function's idle list. The stamp it reserves
// gives c's reclaim the sequence number an After(IdleTimeout) made now
// would have had, so the reclaim fires at exactly that (time, sequence)
// key whenever the deadline reaches c.
func (p *Platform) makeIdle(c *container) {
	f := c.fn
	c.state = stateIdle
	c.idleAt = p.sim.Now()
	c.stamp = p.sim.Reserve()
	f.idle = append(f.idle, c)
	if len(f.idle) == 1 {
		p.armDeadline(f)
	}
}

// removeIdle takes f.idle[i] off the idle list. Removing the container
// the deadline belongs to moves the deadline to the next one.
func (p *Platform) removeIdle(f *function, i int) {
	f.idle = append(f.idle[:i], f.idle[i+1:]...)
	if i == 0 {
		f.deadline.Cancel()
		f.deadline = sim.EventHandle{}
		p.armDeadline(f)
	}
}

// armDeadline schedules the reclaim of the oldest idle container, if
// there is one. The idle list is ordered by (idleAt, stamp), so no other
// idle container can expire before it.
//
//amoeba:noalloc
func (p *Platform) armDeadline(f *function) {
	if len(f.idle) == 0 {
		return
	}
	c := f.idle[0]
	f.deadline = p.sim.AtStamp(c.idleAt+sim.Time(p.cfg.IdleTimeout.Raw()), c.stamp, f.expire)
}

// expire fires the deadline: the oldest idle container's timeout has
// passed, and it is reclaimed.
func (p *Platform) expire(f *function) {
	f.deadline = sim.EventHandle{} // fired: nothing left to cancel
	p.destroy(f.idle[0])
}

// startPrewarmOne launches one prewarming container; reports whether it
// could be started (nMax and memory permitting). onWarm fires when the
// container becomes idle (or dies first).
func (p *Platform) startPrewarmOne(f *function, onWarm func()) bool {
	if f.containers >= f.nMax {
		return false
	}
	if !p.memAvailable() && !p.evictIdle(f) {
		return false
	}
	if !p.memAvailable() {
		return false
	}
	c := p.newContainer(f, statePrewarming)
	// A prewarm cold start is its own (root-less) trace, causally linked
	// to the switch span that ordered the warming, if one is in progress.
	coldH := p.tracer.Begin(units.Seconds(p.sim.Now()), p.tracer.StartTrace(), 0,
		p.tracer.CauseFor(f.profile.Name), obs.PhaseColdStart,
		f.profile.Name, backendName)
	delay := p.sampleColdStart()
	p.sim.After(delay, func() {
		p.tracer.End(units.Seconds(p.sim.Now()), coldH)
		if c.state != stateDead {
			if p.bus.Active() {
				p.bus.Emit(&obs.ColdStart{
					At:      units.Seconds(p.sim.Now()),
					Service: f.profile.Name,
					Delay:   units.Seconds(delay),
					Prewarm: true,
				})
			}
			p.makeIdle(c)
			p.pump()
		}
		onWarm()
	})
	return true
}

//amoeba:noalloc
func (p *Platform) sampleColdStart() float64 {
	return math.Exp(p.coldMu + p.coldSigma*p.normals.Next())
}

// execute models the activation's latency anatomy and demand. coldDelay
// is the cold-start time already paid before this call (zero on the warm
// path). The activation is recycled here: everything the completion needs
// is copied into the container's scratch fields, and the completion event
// is the container's prebuilt finish callback — the warm path schedules
// no closures and, in steady state, allocates nothing.
func (p *Platform) execute(c *container, act *activation, coldDelay float64) {
	f := c.fn
	prof := &f.profile
	c.state = stateBusy

	now := p.sim.Now()
	c.arrived = act.arrived
	c.qt = act.qt
	p.putActivation(act)
	c.execH = p.tracer.Begin(units.Seconds(now), c.qt.Trace, c.qt.Span, 0,
		obs.PhaseExec, prof.Name, backendName)
	queueWait := float64(now-c.arrived) - coldDelay
	if queueWait < 0 {
		queueWait = 0
	}

	codeLoad := prof.Overheads.CodeLoadHot
	if coldDelay > 0 {
		codeLoad *= p.cfg.CodeLoadColdFactor
	}

	// Function body: solo-run time scaled by the slowdown under the
	// pressure at dispatch; the lognormal parameters were fixed at
	// Register.
	body := math.Exp(f.execMu + f.execSigma*p.normals.Next())
	body *= p.model.Slowdown(p.currentPressure(), prof.Sensitivity)

	c.bd = metrics.Breakdown{
		Queue:      queueWait,
		ColdStart:  coldDelay,
		Processing: prof.Overheads.Processing,
		CodeLoad:   codeLoad,
		Exec:       body,
		Post:       prof.Overheads.ResultPost,
	}
	busy := c.bd.Processing + c.bd.CodeLoad + c.bd.Exec + c.bd.Post

	// The body's demand joins the platform aggregate for its duration.
	d := prof.Demand
	d.MemMB = 0 // memory is accounted per container, not per body
	c.demand = d
	p.demand = p.demand.Add(d)
	f.usage.Adjust(float64(now), d)

	p.sim.After(busy, c.finish)
}

// finishExec completes the container's running activation: demand leaves
// the aggregate, the completion callback fires, and the container goes
// idle.
func (p *Platform) finishExec(c *container) {
	f := c.fn
	prof := &f.profile
	p.demand = p.demand.Sub(c.demand)
	f.usage.Adjust(float64(p.sim.Now()), c.demand.Scale(-1))
	f.inflight--
	p.tracer.End(units.Seconds(p.sim.Now()), c.execH)
	c.execH = obs.SpanHandle{}
	if p.bus.Active() {
		p.done = obs.QueryComplete{
			At:         units.Seconds(p.sim.Now()),
			Service:    prof.Name,
			Backend:    backendName,
			Arrived:    units.Seconds(c.arrived),
			Latency:    units.Seconds(p.sim.Now() - c.arrived),
			Queue:      units.Seconds(c.bd.Queue),
			ColdStart:  units.Seconds(c.bd.ColdStart),
			Processing: units.Seconds(c.bd.Processing),
			CodeLoad:   units.Seconds(c.bd.CodeLoad),
			Exec:       units.Seconds(c.bd.Exec),
			Post:       units.Seconds(c.bd.Post),
			Trace:      c.qt.Trace,
			Span:       c.qt.Span,
			Cause:      c.qt.Cause,
		}
		p.bus.Emit(&p.done)
	}
	c.qt = obs.QueryTrace{}
	if f.onComplete != nil {
		f.onComplete(metrics.QueryRecord{
			Backend:   metrics.BackendServerless,
			Breakdown: c.bd,
		})
	}
	p.makeIdle(c)
	p.pump()
}

// Prewarm starts up to n fresh containers for the named function; they
// become warm after their cold start and then serve queries without
// cold-start latency (§V-A). Returns how many were actually started
// (memory and n_max bound the rest). onReady, if non-nil, fires once all
// started containers are warm.
func (p *Platform) Prewarm(name string, n int, onReady func()) int {
	f := p.mustFn(name)
	started, pending := 0, 0
	for i := 0; i < n; i++ {
		ok := p.startPrewarmOne(f, func() {
			pending--
			if pending == 0 && onReady != nil {
				onReady()
				onReady = nil
			}
		})
		if !ok {
			break
		}
		started++
		pending++
	}
	if started == 0 && onReady != nil {
		// Nothing to warm: report readiness immediately (next event).
		p.sim.After(0, onReady)
	}
	return started
}

// ReleaseIdle destroys all warm containers of the named function — the
// engine's shutdown signal S_sd after a switch back to IaaS (§V-B).
func (p *Platform) ReleaseIdle(name string) int {
	f := p.mustFn(name)
	n := len(f.idle)
	for len(f.idle) > 0 {
		p.destroy(f.idle[len(f.idle)-1])
	}
	return n
}

// InjectDemand permanently adds raw demand to the platform aggregate —
// the profiling harness uses it to hold the pressure on one resource at an
// exact level while building meter curves (Fig. 8) and latency surfaces
// (Fig. 9). Pass a negative vector to remove previously injected demand.
// It panics if removal drives the aggregate demand negative.
func (p *Platform) InjectDemand(v resources.Vector) {
	p.demand = p.demand.Add(v).SnapResidue()
	if !p.demand.NonNegative() {
		panic(fmt.Sprintf("serverless: injected demand made aggregate negative: %v", p.demand))
	}
}

// SetSharedPressure switches the platform into shared-pressure mode and
// installs the pressure under which bodies dispatched from now on will
// execute. In this mode the platform's own aggregate demand no longer
// feeds its slowdowns — the caller owns the pressure signal and is
// expected to refresh it periodically (the sharded runtime does so at
// every epoch barrier with the aggregated cross-shard demand). The mode
// is one-way: a platform constructed for sharded execution never
// reverts to self-derived pressure mid-run.
//
//amoeba:noalloc
func (p *Platform) SetSharedPressure(pr contention.Pressure) {
	p.sharedMode = true
	p.sharedPressure = pr
}

// currentPressure is the pressure applied to a body dispatched now:
// externally frozen in shared mode, derived from the live aggregate
// demand otherwise.
//
//amoeba:noalloc
func (p *Platform) currentPressure() contention.Pressure {
	if p.sharedMode {
		return p.sharedPressure
	}
	return p.model.Pressure(p.demand)
}

// DemandNow returns the aggregate running demand.
func (p *Platform) DemandNow() resources.Vector { return p.demand }

// Inflight returns submitted-but-incomplete activations for the function.
func (p *Platform) Inflight(name string) int { return p.mustFn(name).inflight }

// NMax returns the container cap applied to the named function.
func (p *Platform) NMax(name string) int { return p.mustFn(name).nMax }

// UsageFor returns the function's accumulated resource-time integral up to
// now: MemMB·s of container residency plus CPU/IO/net demand while
// executing. This is the serverless side of Fig. 11's accounting.
func (p *Platform) UsageFor(name string) resources.Vector {
	return p.mustFn(name).usage.TotalAt(float64(p.sim.Now()))
}

// AllocFor returns the function's instantaneous allocation.
func (p *Platform) AllocFor(name string) resources.Vector {
	return p.mustFn(name).usage.Current()
}
