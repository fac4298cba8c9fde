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

// svcSeries holds one service's interned metric handles. Every field
// is resolved at most once — on the first event that needs it — and
// folded through a direct pointer (or a small per-label-value map)
// thereafter, so the steady-state fold never formats a label key.
type svcSeries struct {
	ls         LabelSet            // {service="X"}, shared by the single-label series
	queries    map[string]*Counter // by backend
	latency    *Histogram
	coldQuery  *Counter
	coldPre    *Counter
	verdicts   map[string]*Counter // by verdict
	load       *Gauge
	admissible *Gauge
	mu         *Gauge
	switches   map[string]*Counter // by target mode
	heartbeats *Counter
	phases     map[Phase]*Histogram // by trace phase
}

// MetricsSink folds the event stream into a Registry: query and
// cold-start counters, per-service latency and phase histograms,
// decision and switch counters, and pressure/load gauges. Attach one
// to a Bus to get a scrape-able snapshot of a run at any point
// (amoeba-sim -metrics-dump renders it after the horizon).
//
// Label handling is interned: series handles are resolved once per
// (service, label-value) pair through pre-sorted LabelSet suffixes and
// cached, so the per-event fold path performs no label formatting and,
// in steady state, no allocation (histogram observation is
// allocation-free by construction).
type MetricsSink struct {
	reg        *Registry
	services   map[string]*svcSeries
	coldDelay  *Histogram
	switchDur  map[string]*Histogram // by target mode
	pressure   [3]*Gauge
	meterLat   [3]*Gauge
	meterPress [3]*Gauge
}

// NewMetricsSink builds a sink updating reg.
func NewMetricsSink(reg *Registry) *MetricsSink {
	return &MetricsSink{
		reg:       reg,
		services:  make(map[string]*svcSeries),
		switchDur: make(map[string]*Histogram),
	}
}

// Consume implements Sink. It panics on an event type outside the
// closed taxonomy — an unfolded event kind is an invariant violation,
// not a datum to count under a catch-all.
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
	if s, ok := m.services[service]; ok {
		return s
	}
	s := &svcSeries{ls: NewLabelSet("service", service)}
	m.services[service] = s
	return s
}

func (m *MetricsSink) foldQuery(e *QueryComplete) {
	s := m.svc(e.Service)
	c := s.queries[e.Backend]
	if c == nil {
		if s.queries == nil {
			s.queries = make(map[string]*Counter)
		}
		c = m.reg.Counter(Labeled("amoeba_queries_total",
			"service", e.Service, "backend", e.Backend))
		s.queries[e.Backend] = c
	}
	c.Inc()
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
	c := s.verdicts[e.Verdict]
	if c == nil {
		if s.verdicts == nil {
			s.verdicts = make(map[string]*Counter)
		}
		c = m.reg.Counter(Labeled("amoeba_decisions_total",
			"service", e.Service, "verdict", e.Verdict))
		s.verdicts[e.Verdict] = c
	}
	c.Inc()
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
	c := s.switches[e.To]
	if c == nil {
		if s.switches == nil {
			s.switches = make(map[string]*Counter)
		}
		c = m.reg.Counter(Labeled("amoeba_switches_total",
			"service", e.Service, "to", e.To))
		s.switches[e.To] = c
	}
	c.Inc()
	if !e.Aborted {
		h := m.switchDur[e.To]
		if h == nil {
			h = m.reg.Histogram(Labeled("amoeba_switch_duration_seconds", "to", e.To),
				latencyLo, latencyHi, latencySub)
			m.switchDur[e.To] = h
		}
		h.Observe((e.End - e.Start).Raw())
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
	h := s.phases[e.Phase]
	if h == nil {
		if s.phases == nil {
			s.phases = make(map[Phase]*Histogram)
		}
		h = m.reg.Histogram(Labeled("amoeba_phase_seconds",
			"service", e.Service, "phase", string(e.Phase)),
			latencyLo, latencyHi, latencySub)
		s.phases[e.Phase] = h
	}
	h.Observe((e.End - e.Start).Raw())
}
