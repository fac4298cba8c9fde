package obs

// Latency histogram shape shared by every latency-valued series: 1 ms
// to ~100 s at 32 sub-buckets per octave (~3% worst-case quantile
// error, 544 buckets).
const (
	latencyLo  = 1e-3
	latencyHi  = 100.0
	latencySub = 32
)

// resources names the meter/pressure label values in meter order.
var resources = [...]string{"cpu", "io", "net"}

// handle is one interned metric handle and the label value it is kept
// under.
type handle[T any] struct {
	value string
	h     T
}

// handles keeps a few metric handles keyed by one label's value, in the
// order first seen. The values come from short sets (the run's services,
// two backends, a few verdicts and switch targets), so a linear scan
// finds one without hashing the string, and two strings from one
// literal compare equal by pointer.
type handles[T any] []handle[T]

// slot returns the handle slot for value, adding an empty one on first
// sight. The pointer is good until the next call.
func (hs *handles[T]) slot(value string) *T {
	for i := range *hs {
		if (*hs)[i].value == value {
			return &(*hs)[i].h
		}
	}
	*hs = append(*hs, handle[T]{value: value})
	return &(*hs)[len(*hs)-1].h
}

// svcSeries holds one service's interned metric handles. Every field
// is resolved at most once — on the first event that needs it — and
// folded through a direct pointer (or a short scan of per-label-value
// handles) thereafter, so the steady-state fold never formats a label
// key nor hashes a string.
type svcSeries struct {
	ls         LabelSet          // {service="X"}, shared by the single-label series
	queries    handles[*Counter] // by backend
	latency    *Histogram
	coldQuery  *Counter
	coldPre    *Counter
	verdicts   handles[*Counter] // by verdict
	load       *Gauge
	admissible *Gauge
	mu         *Gauge
	switches   handles[*Counter] // by target mode
	heartbeats *Counter
	phases     [5]*Histogram // by phaseSlot
}

// MetricsSink folds the event stream into a Registry: query and
// cold-start counters, per-service latency and phase histograms,
// decision and switch counters, and pressure/load gauges. Attach one
// to a Bus to get a scrape-able snapshot of a run at any point
// (amoeba-sim -metrics-dump renders it after the horizon).
//
// Label handling is interned: series handles are resolved once per
// (service, label-value) pair through pre-sorted LabelSet suffixes and
// cached, so the per-event fold path performs no label formatting, no
// string hashing and, in steady state, no allocation (histogram
// observation is allocation-free by construction).
type MetricsSink struct {
	reg        *Registry
	services   handles[*svcSeries]
	coldDelay  *Histogram
	switchDur  handles[*Histogram] // by target mode
	pressure   [3]*Gauge
	meterLat   [3]*Gauge
	meterPress [3]*Gauge
}

// NewMetricsSink builds a sink updating reg.
func NewMetricsSink(reg *Registry) *MetricsSink {
	return &MetricsSink{reg: reg}
}

// Consume implements Sink. It panics on an event type outside the
// closed taxonomy, and on a PhaseSpan whose phase is outside the closed
// Phase set — an unfolded event kind or phase is an invariant
// violation, not a datum to count under a catch-all.
//
//amoeba:noalloc
func (m *MetricsSink) Consume(ev Event) {
	switch e := ev.(type) {
	case *QueryComplete:
		m.foldQuery(e)
	case *ColdStart:
		m.foldCold(e)
	case *DecisionEvent:
		m.foldDecision(e)
	case *SwitchSpan:
		m.foldSwitch(e)
	case *HeartbeatSample:
		m.foldHeartbeat(e)
	case *MeterSample:
		m.foldMeter(e)
	case *PhaseSpan:
		m.foldPhase(e)
	default:
		//amoeba:allowalloc(cold panic path: concat fires only on an event outside the closed taxonomy)
		panic("obs: event type outside the closed taxonomy: " + string(ev.EventKind()))
	}
}

// svc interns the per-service series block on first sight of a service.
func (m *MetricsSink) svc(service string) *svcSeries {
	s := m.services.slot(service)
	if *s == nil {
		*s = &svcSeries{ls: NewLabelSet("service", service)}
	}
	return *s
}

func (m *MetricsSink) foldQuery(e *QueryComplete) {
	s := m.svc(e.Service)
	c := s.queries.slot(e.Backend)
	if *c == nil {
		*c = m.reg.Counter(Labeled("amoeba_queries_total",
			"service", e.Service, "backend", e.Backend))
	}
	(*c).Inc()
	if s.latency == nil {
		s.latency = m.reg.Histogram(s.ls.For("amoeba_latency_seconds"),
			latencyLo, latencyHi, latencySub)
	}
	s.latency.Observe(e.Latency.Raw())
}

func (m *MetricsSink) foldCold(e *ColdStart) {
	s := m.svc(e.Service)
	slot, trigger := &s.coldQuery, "query"
	if e.Prewarm {
		slot, trigger = &s.coldPre, "prewarm"
	}
	if *slot == nil {
		*slot = m.reg.Counter(Labeled("amoeba_cold_starts_total",
			"service", e.Service, "trigger", trigger))
	}
	(*slot).Inc()
	if m.coldDelay == nil {
		m.coldDelay = m.reg.Histogram("amoeba_cold_start_seconds",
			latencyLo, latencyHi, latencySub)
	}
	m.coldDelay.Observe(e.Delay.Raw())
}

func (m *MetricsSink) foldDecision(e *DecisionEvent) {
	s := m.svc(e.Service)
	c := s.verdicts.slot(e.Verdict)
	if *c == nil {
		*c = m.reg.Counter(Labeled("amoeba_decisions_total",
			"service", e.Service, "verdict", e.Verdict))
	}
	(*c).Inc()
	if s.load == nil {
		s.load = m.reg.Gauge(s.ls.For("amoeba_load_qps"))
		s.admissible = m.reg.Gauge(s.ls.For("amoeba_admissible_qps"))
		s.mu = m.reg.Gauge(s.ls.For("amoeba_mu"))
	}
	s.load.Set(e.LoadQPS.Raw())
	s.admissible.Set(e.AdmissibleQPS.Raw())
	s.mu.Set(e.Mu.Raw())
	if m.pressure[0] == nil {
		for i, res := range resources {
			m.pressure[i] = m.reg.Gauge(Labeled("amoeba_pressure", "resource", res))
		}
	}
	for i := range m.pressure {
		m.pressure[i].Set(e.Pressure[i])
	}
}

func (m *MetricsSink) foldSwitch(e *SwitchSpan) {
	s := m.svc(e.Service)
	c := s.switches.slot(e.To)
	if *c == nil {
		*c = m.reg.Counter(Labeled("amoeba_switches_total",
			"service", e.Service, "to", e.To))
	}
	(*c).Inc()
	if !e.Aborted {
		h := m.switchDur.slot(e.To)
		if *h == nil {
			*h = m.reg.Histogram(Labeled("amoeba_switch_duration_seconds", "to", e.To),
				latencyLo, latencyHi, latencySub)
		}
		(*h).Observe((e.End - e.Start).Raw())
	}
}

func (m *MetricsSink) foldHeartbeat(e *HeartbeatSample) {
	s := m.svc(e.Service)
	if s.heartbeats == nil {
		s.heartbeats = m.reg.Counter(s.ls.For("amoeba_heartbeats_total"))
	}
	s.heartbeats.Inc()
}

func (m *MetricsSink) foldMeter(e *MeterSample) {
	if m.meterLat[0] == nil {
		for i, res := range resources {
			m.meterLat[i] = m.reg.Gauge(Labeled("amoeba_meter_latency_seconds", "meter", res))
			m.meterPress[i] = m.reg.Gauge(Labeled("amoeba_meter_pressure", "meter", res))
		}
	}
	for i := range m.meterLat {
		m.meterLat[i].Set(e.Latency[i].Raw())
		m.meterPress[i].Set(e.Pressure[i])
	}
}

func (m *MetricsSink) foldPhase(e *PhaseSpan) {
	s := m.svc(e.Service)
	h := &s.phases[phaseSlot(e.Phase)]
	if *h == nil {
		*h = m.reg.Histogram(Labeled("amoeba_phase_seconds",
			"service", e.Service, "phase", string(e.Phase)),
			latencyLo, latencyHi, latencySub)
	}
	(*h).Observe((e.End - e.Start).Raw())
}

// phaseSlot returns p's index in a service's phase histograms. It
// panics on a phase outside the closed Phase set, as Consume does on an
// event outside the taxonomy.
func phaseSlot(p Phase) int {
	switch p {
	case PhaseQueueWait:
		return 0
	case PhaseColdStart:
		return 1
	case PhaseExec:
		return 2
	case PhaseDrain:
		return 3
	case PhaseRetry:
		return 4
	}
	panic("obs: phase outside the closed set: " + string(p))
}
