// Package amoeba is the public API of this reproduction of "Amoeba:
// QoS-Awareness and Reduced Resource Usage of Microservices with
// Serverless Computing" (Li et al., IPDPS 2020).
//
// Amoeba is a runtime that switches each microservice between an
// IaaS-based deployment (long-term rented VMs) and a serverless-based
// deployment (a shared FaaS container pool) so that resource usage is
// minimised while the 95%-ile latency stays within the QoS target. The
// switching decision is contention-aware: a multi-resource contention
// monitor quantifies the pressure on the shared pool's CPU, disk and
// network through probe functions ("contention meters"), and a
// controller predicts the admissible load λ(μ_n) from an M/M/N
// discriminant whose per-container capacity μ_n is calibrated online with
// PCA regression.
//
// The package wraps the internal implementation behind a stable surface:
//
//   - Benchmarks:   the FunctionBench-like workload suite (Table III)
//   - Scenario/Run: full-system simulations for any variant
//     (Amoeba, Amoeba-NoM, Amoeba-NoP, pure IaaS, pure serverless)
//   - Experiments:  one driver per table/figure of the paper (§VII)
//
// Quick start:
//
//	prof, _ := amoeba.BenchmarkByName("dd")
//	sc, err := amoeba.NewScenario(amoeba.Amoeba, prof, amoeba.DefaultScenarioOptions())
//	if err != nil {
//		log.Fatal(err)
//	}
//	res := amoeba.Run(sc)
//	sr := res.Services[prof.Name]
//	fmt.Println("p95:", sr.Collector.P95(), "QoS met:", sr.Collector.QoSMet())
package amoeba

import (
	"fmt"
	"io"
	"math"

	"amoeba/internal/contention"
	"amoeba/internal/core"
	"amoeba/internal/experiments"
	"amoeba/internal/metrics"
	"amoeba/internal/obs"
	"amoeba/internal/report"
	"amoeba/internal/resources"
	"amoeba/internal/trace"
	"amoeba/internal/units"
	"amoeba/internal/workload"
)

// Unit types re-exported from internal/units. All public signatures that
// carry a duration, an arrival rate, or a unitless ratio use these defined
// types instead of bare float64, so the compiler (and the unitcheck
// analyzer in cmd/amoeba-vet) can catch argument swaps and dimensional
// mistakes. Convert explicitly: Seconds(1.5), qps.Raw().
type (
	// Seconds is a duration or point in virtual time.
	Seconds = units.Seconds
	// Millis is a duration in milliseconds (reporting only).
	Millis = units.Millis
	// QPS is an arrival rate in queries per second.
	QPS = units.QPS
	// ServiceRate is a per-container processing capacity μ.
	ServiceRate = units.ServiceRate
	// Fraction is a dimensionless ratio, usually in [0, 1].
	Fraction = units.Fraction
	// MegaBytes is a memory size.
	MegaBytes = units.MegaBytes
	// Cores is a CPU core count (fractional allowed).
	Cores = units.Cores
)

// Variant selects the system under evaluation.
type Variant = core.Variant

// The five systems of the evaluation (§VII).
const (
	Amoeba    = core.VariantAmoeba    // full system
	AmoebaNoM = core.VariantAmoebaNoM // monitor's PCA calibration disabled
	AmoebaNoP = core.VariantAmoebaNoP // container prewarm disabled
	Nameko    = core.VariantNameko    // pure IaaS baseline
	OpenWhisk = core.VariantOpenWhisk // pure serverless baseline
	// Autoscale is an extension baseline beyond the paper: a
	// Kubernetes-style horizontal VM autoscaler on the IaaS platform.
	Autoscale = core.VariantAutoscale
)

// Benchmark is one microservice workload profile (Table III). Construct
// custom profiles with composite literals; Validate reports mistakes.
type Benchmark = workload.Profile

// ResourceVector is a demand or capacity across the four shared
// resources: CPU cores, memory MB, disk MB/s, network Mb/s.
type ResourceVector = resources.Vector

// Sensitivity is a service's susceptibility to contention on each
// meter-visible resource, in [0, 1] (Table III).
type Sensitivity = contention.Sensitivity

// Overheads is the serverless per-query latency anatomy (Fig. 4).
type Overheads = workload.Overheads

// ContainerMemMB is the serverless container size of Table II (256 MB).
const ContainerMemMB = workload.ContainerMemMB

// Benchmarks returns the five FunctionBench-like workloads in Table III
// order: float, matmul, linpack, dd, cloud_stor.
func Benchmarks() []Benchmark { return workload.All() }

// BenchmarkByName looks a benchmark up by its Table III name.
func BenchmarkByName(name string) (Benchmark, error) { return workload.ByName(name) }

// Scenario describes one evaluation run; build it with NewScenario or
// assemble it directly for multi-service setups.
type Scenario = core.Scenario

// ServiceSpec pairs a benchmark with its load trace.
type ServiceSpec = core.ServiceSpec

// Result is a completed run; Services holds per-benchmark outcomes.
type Result = core.Result

// ServiceResult is one benchmark's outcome: latency collector, switch
// timeline, resource usage integrals, and controller decisions.
type ServiceResult = core.ServiceResult

// Backend identifies which deployment served a query.
type Backend = metrics.Backend

// The two deployment modes.
const (
	BackendIaaS       = metrics.BackendIaaS
	BackendServerless = metrics.BackendServerless
)

// Trace is a time-varying arrival-rate function.
type Trace = trace.Trace

// ConstantTrace returns a flat trace at the given QPS.
func ConstantTrace(qps QPS) Trace { return trace.Constant{QPS: qps.Raw()} }

// DiurnalTrace returns a Didi-shaped daily load pattern: a deep night
// trough, morning and evening peaks, deterministic noise.
func DiurnalTrace(peakQPS, troughQPS QPS, dayLength Seconds, seed uint64) Trace {
	return trace.NewDiurnal(peakQPS.Raw(), troughQPS.Raw(), dayLength.Raw(), seed)
}

// LoadTraceCSV reads a two-column "time_seconds,qps" series into a
// replayable trace with linear interpolation — how a production trace
// (e.g. the Didi ride-request series the paper uses) enters a scenario.
func LoadTraceCSV(r io.Reader) (Trace, error) { return trace.LoadCSV(r) }

// SampledTrace builds a replayable trace from explicit (time, QPS)
// samples.
func SampledTrace(times, rates []float64) (Trace, error) {
	return trace.NewSampled(times, rates)
}

// ScenarioOptions tunes NewScenario.
type ScenarioOptions struct {
	// DayLength is the virtual length of one diurnal day.
	DayLength Seconds
	// Days is the horizon in days.
	Days float64
	// TroughFraction is the night trough as a fraction of the peak.
	TroughFraction Fraction
	// Seed fixes all randomness; equal seeds reproduce runs exactly.
	Seed uint64
	// Background adds the paper's §VII-A co-tenants to the shared pool.
	Background bool
}

// DefaultScenarioOptions mirrors the evaluation setup: one compressed
// 3600-second day, a 20% trough, background tenants on.
func DefaultScenarioOptions() ScenarioOptions {
	return ScenarioOptions{
		DayLength:      3600,
		Days:           1,
		TroughFraction: 0.2,
		Seed:           0xA0EBA,
		Background:     true,
	}
}

// NewScenario builds the paper's standard single-benchmark scenario: the
// benchmark under a diurnal load, optionally with the three background
// tenants sharing the serverless pool. It returns an error if DayLength
// or Days is not positive and finite, if TroughFraction is outside
// [0, 1), or if the benchmark or the built scenario fails validation.
func NewScenario(v Variant, prof Benchmark, opts ScenarioOptions) (Scenario, error) {
	for _, f := range []struct {
		name string
		v    float64
	}{{"day length", opts.DayLength.Raw()}, {"days", opts.Days}} {
		if !(f.v > 0) || math.IsInf(f.v, 1) {
			return Scenario{}, fmt.Errorf("amoeba: %s %v is not positive and finite", f.name, f.v)
		}
	}
	if t := opts.TroughFraction.Raw(); !(t >= 0 && t < 1) {
		return Scenario{}, fmt.Errorf("amoeba: trough fraction %v is outside [0, 1)", t)
	}
	if err := prof.Validate(); err != nil {
		return Scenario{}, err
	}
	sc := Scenario{
		Variant: v,
		Services: []ServiceSpec{{
			Profile: prof,
			Trace: DiurnalTrace(QPS(prof.PeakQPS),
				units.Scale(QPS(prof.PeakQPS), opts.TroughFraction.Raw()),
				opts.DayLength, opts.Seed),
		}},
		Duration: units.Scale(opts.DayLength, opts.Days),
		Seed:     opts.Seed,
	}
	if opts.Background {
		sc.Background = core.BackgroundTenants(opts.DayLength, opts.Seed+7)
	}
	if err := sc.Validate(); err != nil {
		return Scenario{}, err
	}
	return sc, nil
}

// Run executes a scenario to completion. Runs are deterministic for a
// given scenario and seed.
func Run(sc Scenario) *Result { return core.Run(sc) }

// RunSharded executes a scenario on the K-worker sharded kernel
// (DESIGN.md §15): services advance on per-shard event heaps and couple
// through the shared pool pressure only at monitor-sample-period epoch
// barriers. Output is deterministic in (scenario, seed) and identical
// for every shard count, including shards=1.
func RunSharded(sc Scenario, shards int) *Result { return core.RunSharded(sc, shards) }

// BackgroundTenants returns the §VII-A co-tenant set (float, dd,
// cloud_stor at a low diurnal load) for custom scenarios.
func BackgroundTenants(dayLength Seconds, seed uint64) []ServiceSpec {
	return core.BackgroundTenants(dayLength, seed)
}

// Telemetry re-exports from internal/obs. Attach sinks to an EventBus,
// set it on Scenario.Bus, and every decision, switch phase, cold start,
// completed query, heartbeat, and meter refresh of the run becomes an
// inspectable event. With a nil bus the instrumented code paths cost one
// nil check — observation is strictly opt-in.
type (
	// EventBus fans telemetry events out to attached sinks.
	EventBus = obs.Bus
	// Event is one telemetry record; see the obs package for the taxonomy.
	Event = obs.Event
	// EventKind discriminates event types in the serialized stream.
	EventKind = obs.Kind
	// EventSink consumes emitted events. Consume borrows the event only
	// until it returns, since emitters reuse their event structs; a sink
	// that keeps events keeps copies, as EventRing does.
	EventSink = obs.Sink
	// EventJSONLWriter streams events as one JSON object per line,
	// encoding on a goroutine of its own; Run and RunSharded flush it
	// before they return.
	EventJSONLWriter = obs.JSONLWriter
	// EventRing keeps copies of the most recent events in memory.
	EventRing = obs.Ring
	// MetricsRegistry holds counters, gauges, and bounded histograms with
	// Prometheus-text exposition.
	MetricsRegistry = obs.Registry
	// DecisionEvent is one controller decision with the full Eq. 5
	// discriminant inputs, the verdict, and its reason.
	DecisionEvent = obs.DecisionEvent
	// SwitchSpan is one deploy-mode transition with per-phase durations.
	SwitchSpan = obs.SwitchSpan
	// TraceID identifies one causal tree in the event stream (0 =
	// untraced); SpanID one span within a run. Every traced run's JSONL
	// stream is a reconstructable DAG over these.
	TraceID = obs.TraceID
	// SpanID identifies one span (interval or instant) in the stream.
	SpanID = obs.SpanID
	// TracePhase names the typed query/control phases (queue wait, cold
	// start, exec, drain, retry) a PhaseSpan records.
	TracePhase = obs.Phase
	// PhaseSpan is one closed phase interval of a traced query or switch.
	PhaseSpan = obs.PhaseSpan
)

// The event taxonomy (EventRing.Filter keys).
const (
	KindQueryComplete = obs.KindQueryComplete
	KindColdStart     = obs.KindColdStart
	KindDecision      = obs.KindDecision
	KindSwitchSpan    = obs.KindSwitchSpan
	KindHeartbeat     = obs.KindHeartbeat
	KindMeterSample   = obs.KindMeterSample
	KindPhaseSpan     = obs.KindPhaseSpan
)

// The trace-phase taxonomy (PhaseSpan.Phase values).
const (
	PhaseQueueWait = obs.PhaseQueueWait
	PhaseColdStart = obs.PhaseColdStart
	PhaseExec      = obs.PhaseExec
	PhaseDrain     = obs.PhaseDrain
	PhaseRetry     = obs.PhaseRetry
)

// NewEventBus returns an empty telemetry bus.
func NewEventBus() *EventBus { return obs.NewBus() }

// NewEventJSONLWriter wraps w as a JSONL event sink.
func NewEventJSONLWriter(w io.Writer) *EventJSONLWriter { return obs.NewJSONLWriter(w) }

// NewEventRing returns a bounded in-memory sink keeping the last n
// events. It panics if n is not positive.
func NewEventRing(n int) *EventRing { return obs.NewRing(n) }

// NewMetricsRegistry returns an empty metric registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewMetricsSink returns a sink folding the event stream into reg.
func NewMetricsSink(reg *MetricsRegistry) EventSink { return obs.NewMetricsSink(reg) }

// DecisionAuditTable renders the decision-audit trail of an event stream:
// one row per DecisionEvent with load, μ̂, admissible load, pressure,
// verdict, and reason.
func DecisionAuditTable(events []Event) *report.Table { return obs.AuditTable(events) }

// SwitchSpanTable renders one row per SwitchSpan with the per-phase
// durations of the §V switch protocol.
func SwitchSpanTable(events []Event) *report.Table { return obs.SwitchTable(events) }

// ExperimentConfig scopes the paper-reproduction experiments.
type ExperimentConfig = experiments.Config

// DefaultExperimentConfig returns the standard evaluation configuration.
func DefaultExperimentConfig() ExperimentConfig { return experiments.DefaultConfig() }

// ExperimentSuite memoises full scenario runs shared by several figures.
type ExperimentSuite = experiments.Suite

// NewExperimentSuite creates an experiment suite.
func NewExperimentSuite(cfg ExperimentConfig) *ExperimentSuite {
	return experiments.NewSuite(cfg)
}
