// Package iaas simulates the traditional IaaS-based deployment (the
// paper's Nameko-on-VMs setup, §II-B): each microservice owns a group of
// long-running virtual machines sized "just enough" for its peak load
// under the QoS target. The rented resources are allocated for the whole
// VM lifetime whether queries arrive or not — which is precisely the
// waste Fig. 2 quantifies — but queries see no cold start and no
// cross-tenant contention.
//
// Processing model: a service with k total worker cores behaves as an
// FCFS M/G/k system — one query per worker at a time, a shared queue.
package iaas

import (
	"fmt"
	"math"

	"amoeba/internal/fifo"
	"amoeba/internal/metrics"
	"amoeba/internal/obs"
	"amoeba/internal/queueing"
	"amoeba/internal/resources"
	"amoeba/internal/sim"
	"amoeba/internal/units"
	"amoeba/internal/workload"
)

// The platform's fixed settings.
const (
	// bootDelay is the VM boot time paid before a switched-in service can
	// take traffic (§V-B's engine boots VMs before routing).
	bootDelay = 30
	// rpcOverhead is the constant per-query cost of the Nameko RPC path.
	rpcOverhead = 0.004
	// qosQuantile is the latency quantile provisioning targets.
	qosQuantile units.Fraction = 0.95
)

// backendName labels the platform's spans and events.
var backendName = metrics.BackendIaaS.String()

// pending is one waiting query: its arrival instant plus the trace
// context and open queue-wait span carried to dispatch.
type pending struct {
	arrived sim.Time
	qt      obs.QueryTrace
	queueH  obs.SpanHandle
}

// execution is one running query: everything its completion needs.
// Records are pooled on an intrusive free list, and each carries a
// completion callback built once, so dispatching and completing a query
// allocate nothing in steady state.
type execution struct {
	svc     *service
	arrived sim.Time
	bd      metrics.Breakdown
	qt      obs.QueryTrace
	execH   obs.SpanHandle // open exec phase span
	done    func()         // completes this query
	next    *execution     // free-list link
}

type service struct {
	profile    workload.Profile
	consumed   resources.Vector // CPU a running query burns
	vms        int              // VM count in the group
	slots      int              // total worker slots (vms × VMCores)
	busy       int
	queue      fifo.Ring[pending] // waiting queries in arrival order
	running    bool               // VMs up and taking traffic
	inflight   int
	usage      *resources.Usage // allocated (rented) resources
	busyUsage  *resources.Usage // consumed CPU: demand of executing queries
	onComplete func(metrics.QueryRecord)
	// execMu and execSigma are the lognormal parameters of the body's
	// execution time, precomputed once at deploy so the per-query hot
	// path draws without re-deriving them.
	execMu    float64
	execSigma float64
}

// Platform hosts per-service VM groups.
type Platform struct {
	sim      *sim.Simulator
	normals  *sim.Stream // the body times' standard normals (DESIGN.md §22)
	bus      *obs.Bus
	tracer   *obs.Tracer
	services map[string]*service
	free     *execution // recycled execution records
	// done is the QueryComplete finishQuery emits, overwritten per
	// query: sinks borrow events only until Consume returns.
	done obs.QueryComplete
}

// New creates an IaaS platform on the simulator.
func New(s *sim.Simulator) *Platform {
	return &Platform{
		sim:      s,
		normals:  sim.NewStream(s.RNG().Split(), sim.StdNormals),
		services: make(map[string]*service),
	}
}

// SetBus attaches the telemetry bus; the platform emits QueryComplete on
// every finished query. A nil bus (the default) keeps emission sites on
// their zero-cost path.
func (p *Platform) SetBus(b *obs.Bus) { p.bus = b }

// SetTracer attaches the causal tracer; every invocation then opens a
// trace with queue-wait/exec phase spans. A nil tracer (the default)
// keeps every span site on its zero-cost guarded path.
func (p *Platform) SetTracer(t *obs.Tracer) { p.tracer = t }

// ProvisionSlots returns the "just-enough" worker count for a profile: the
// minimum slots, at least one, keeping the QoS-quantile response of an
// M/M/k at peak load within target.
func ProvisionSlots(profile workload.Profile) int {
	// Worker service rate: one query's body plus the processing overhead.
	mu := units.ServiceRate(1 / (profile.ExecTime + profile.Overheads.Processing))
	slots, err := queueing.MinContainers(units.QPS(profile.PeakQPS), mu,
		units.Seconds(profile.QoSTarget), qosQuantile, 100000)
	if err != nil {
		//amoeba:allow panic the search cap is a positive literal above
		panic(err)
	}
	return slots
}

// Deploy provisions a VM group for the profile sized for its peak load and
// starts it immediately (no boot delay at initial deployment: the paper's
// maintainers stand services up before taking traffic). onComplete
// receives every finished query (may be nil).
func (p *Platform) Deploy(profile workload.Profile, onComplete func(metrics.QueryRecord)) {
	slots := ProvisionSlots(profile)
	vms := (slots + profile.VMCores - 1) / profile.VMCores
	p.DeployWithVMs(profile, vms, onComplete)
}

// DeployWithVMs provisions an explicit VM count (autoscaling baselines
// start small and let their controller grow the group).
// It panics if the profile is invalid, the VM count is below one, or the
// service is already deployed.
func (p *Platform) DeployWithVMs(profile workload.Profile, vms int, onComplete func(metrics.QueryRecord)) {
	if err := profile.Validate(); err != nil {
		panic(err)
	}
	if vms < 1 {
		panic(fmt.Sprintf("iaas: deploying %q with %d VMs", profile.Name, vms))
	}
	if _, dup := p.services[profile.Name]; dup {
		panic(fmt.Sprintf("iaas: duplicate service %q", profile.Name))
	}
	svc := &service{
		profile:    profile,
		consumed:   resources.Vector{CPU: profile.Demand.CPU},
		vms:        vms,
		slots:      vms * profile.VMCores,
		usage:      resources.NewUsage(float64(p.sim.Now())),
		busyUsage:  resources.NewUsage(float64(p.sim.Now())),
		onComplete: onComplete,
	}
	svc.execMu, svc.execSigma = sim.LognormalParams(profile.ExecTime, profile.ExecCV)
	p.services[profile.Name] = svc
	p.allocate(svc)
	svc.running = true
}

func (p *Platform) allocate(svc *service) {
	svc.usage.Record(float64(p.sim.Now()), p.groupAlloc(svc))
}

func (p *Platform) groupAlloc(svc *service) resources.Vector {
	return resources.Vector{
		CPU:   float64(svc.vms * svc.profile.VMCores),
		MemMB: float64(svc.vms) * svc.profile.VMMemMB,
	}
}

// mustSvc looks up a deployed service. It panics on an unknown name:
// routing to a service that was never deployed is a wiring bug.
func (p *Platform) mustSvc(name string) *service {
	svc, ok := p.services[name]
	if !ok {
		panic(fmt.Sprintf("iaas: unknown service %q", name))
	}
	return svc
}

// Invoker submits queries to one deployed service. Bind resolves the
// service once, when the caller is wired, so a query pays for no name
// lookup.
type Invoker struct {
	p   *Platform
	svc *service
}

// Bind returns an invoker for the named service. It panics if the
// service is not deployed: routing to a service that was never deployed
// is a wiring bug, caught at wiring rather than at the first query.
func (p *Platform) Bind(name string) Invoker {
	return Invoker{p: p, svc: p.mustSvc(name)}
}

// Invoke submits one query. It panics if the service is stopped: the
// execution engine must only route to a running backend.
//
//amoeba:noalloc
func (i Invoker) Invoke() {
	p, svc := i.p, i.svc
	name := svc.profile.Name
	if !svc.running {
		//amoeba:allowalloc(cold panic path: message boxing fires only on a wiring bug)
		panic(fmt.Sprintf("iaas: invoke on stopped service %q", name))
	}
	svc.inflight++
	now := p.sim.Now()
	q := pending{arrived: now, qt: p.tracer.StartQuery(name)}
	q.queueH = p.tracer.Begin(units.Seconds(now), q.qt.Trace, q.qt.Span, 0,
		obs.PhaseQueueWait, name, backendName)
	if svc.busy < svc.slots {
		p.startQuery(svc, q)
	} else {
		svc.queue.Push(q)
	}
}

// startQuery dispatches q onto a free worker slot.
//
//amoeba:noalloc
func (p *Platform) startQuery(svc *service, q pending) {
	svc.busy++
	//amoeba:allowalloc(pool miss: a record and its callback are built once per concurrent-query high-water mark)
	r := p.takeExecution(svc)
	r.arrived = q.arrived
	body := math.Exp(svc.execMu + svc.execSigma*p.normals.Next())
	r.bd = metrics.Breakdown{
		Queue:      float64(p.sim.Now() - q.arrived),
		Processing: rpcOverhead,
		Exec:       body,
	}
	nowS := units.Seconds(p.sim.Now())
	p.tracer.End(nowS, q.queueH)
	r.qt = q.qt
	r.execH = p.tracer.Begin(nowS, r.qt.Trace, r.qt.Span, 0,
		obs.PhaseExec, svc.profile.Name, backendName)
	svc.busyUsage.Adjust(float64(p.sim.Now()), svc.consumed)
	p.sim.After(r.bd.Processing+r.bd.Exec, r.done)
}

// takeExecution reuses a recycled execution record or builds a fresh
// one with its completion callback.
func (p *Platform) takeExecution(svc *service) *execution {
	r := p.free
	if r == nil {
		r = &execution{}
		r.done = func() { p.finishQuery(r) }
	} else {
		p.free = r.next
		r.next = nil
	}
	r.svc = svc
	return r
}

// finishQuery completes a running query: its worker slot and CPU are
// released, the completion is reported, and the record is recycled
// before the next waiting query, if any, takes the slot.
//
//amoeba:noalloc
func (p *Platform) finishQuery(r *execution) {
	svc := r.svc
	name := svc.profile.Name
	svc.busy--
	svc.inflight--
	svc.busyUsage.Adjust(float64(p.sim.Now()), svc.consumed.Scale(-1))
	p.tracer.End(units.Seconds(p.sim.Now()), r.execH)
	if p.bus.Active() {
		p.done = obs.QueryComplete{
			At:         units.Seconds(p.sim.Now()),
			Service:    name,
			Backend:    backendName,
			Arrived:    units.Seconds(r.arrived),
			Latency:    units.Seconds(p.sim.Now() - r.arrived),
			Queue:      units.Seconds(r.bd.Queue),
			Processing: units.Seconds(r.bd.Processing),
			Exec:       units.Seconds(r.bd.Exec),
			Trace:      r.qt.Trace,
			Span:       r.qt.Span,
			Cause:      r.qt.Cause,
		}
		p.bus.Emit(&p.done)
	}
	if svc.onComplete != nil {
		svc.onComplete(metrics.QueryRecord{
			Backend:   metrics.BackendIaaS,
			Breakdown: r.bd,
		})
	}
	r.svc = nil
	r.qt = obs.QueryTrace{}
	r.execH = obs.SpanHandle{}
	r.next = p.free
	p.free = r
	// After a scale-in, busy can exceed slots until the excess
	// drains; only then does the queue resume.
	if svc.queue.Len() > 0 && svc.busy < svc.slots {
		next := svc.queue.Front()
		svc.queue.Pop()
		p.startQuery(svc, next)
	}
}

// Scale resizes a running service's VM group to the given count (an
// elastic-IaaS primitive for autoscaling baselines). Scale-out allocates
// the new VMs immediately — booting VMs hold their reservation — and
// brings their worker slots online after the boot delay; onReady fires
// then.
// Scale-in takes effect immediately: the allocation and slot count drop,
// and queries already running on removed workers finish undisturbed.
// It panics if the target count is below one or the service is stopped.
func (p *Platform) Scale(name string, vms int, onReady func()) {
	svc := p.mustSvc(name)
	if vms < 1 {
		panic(fmt.Sprintf("iaas: scaling %q to %d VMs", name, vms))
	}
	if !svc.running {
		panic(fmt.Sprintf("iaas: scaling stopped service %q", name))
	}
	prev := svc.vms
	svc.vms = vms
	p.allocate(svc)
	if vms > prev {
		p.sim.After(bootDelay, func() {
			svc.slots = svc.vms * svc.profile.VMCores
			// Newly online workers drain any backlog.
			for svc.queue.Len() > 0 && svc.busy < svc.slots {
				next := svc.queue.Front()
				svc.queue.Pop()
				p.startQuery(svc, next)
			}
			if onReady != nil {
				onReady()
			}
		})
		return
	}
	svc.slots = svc.vms * svc.profile.VMCores
	if onReady != nil {
		p.sim.After(0, onReady)
	}
}

// Stop releases the service's VMs once in-flight queries drain. New
// queries must not be routed here afterwards. onStopped fires when the
// resources are actually released.
func (p *Platform) Stop(name string, onStopped func()) {
	svc := p.mustSvc(name)
	if !svc.running {
		if onStopped != nil {
			p.sim.After(0, onStopped)
		}
		return
	}
	svc.running = false
	var drain func()
	drain = func() {
		if svc.inflight == 0 {
			svc.usage.Record(float64(p.sim.Now()), resources.Vector{})
			if onStopped != nil {
				onStopped()
			}
			return
		}
		p.sim.After(0.5, drain)
	}
	drain()
}

// Start boots the service's VM group; queries may be routed after
// onReady fires, the boot delay later. Starting a running service is a
// no-op that still reports readiness.
func (p *Platform) Start(name string, onReady func()) {
	svc := p.mustSvc(name)
	if svc.running {
		if onReady != nil {
			p.sim.After(0, onReady)
		}
		return
	}
	// Resources are allocated from boot, not from readiness: booting VMs
	// already occupy their reservation.
	p.allocate(svc)
	p.sim.After(bootDelay, func() {
		svc.running = true
		if onReady != nil {
			onReady()
		}
	})
}

// Slots returns the service's provisioned worker count.
func (p *Platform) Slots(name string) int { return p.mustSvc(name).slots }

// VMs returns the service's VM count.
func (p *Platform) VMs(name string) int { return p.mustSvc(name).vms }

// Busy returns the number of occupied workers.
func (p *Platform) Busy(name string) int { return p.mustSvc(name).busy }

// QueueLength returns the waiting queries of the service.
func (p *Platform) QueueLength(name string) int { return p.mustSvc(name).queue.Len() }

// UsageFor returns the service's accumulated allocated resource-time: the
// rented cores and memory integrated over the time its VMs were up.
func (p *Platform) UsageFor(name string) resources.Vector {
	return p.mustSvc(name).usage.TotalAt(float64(p.sim.Now()))
}

// ConsumedCPUSeconds returns the core-seconds actually burned by executing
// queries — the numerator of Fig. 2's CPU utilisation.
func (p *Platform) ConsumedCPUSeconds(name string) float64 {
	return p.mustSvc(name).busyUsage.TotalAt(float64(p.sim.Now())).CPU
}

// AllocFor returns the service's instantaneous allocation.
func (p *Platform) AllocFor(name string) resources.Vector {
	return p.mustSvc(name).usage.Current()
}
