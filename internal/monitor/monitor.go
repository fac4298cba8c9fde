// Package monitor implements the multi-resource contention monitor
// (§VI): a daemon that runs the three contention meters on the serverless
// platform at a low rate (1 QPS each, §VII-E), inverts their profiling
// curves to quantify the platform pressure P = {P_cpu, P_io, P_net}, and
// calibrates the Eq. 6 weights from heartbeat samples with PCA regression.
//
// Weight calibration: every sample period the execution engine reports,
// per service, the degradation features e_i = L_i/L₀ − 1 predicted by the
// latency surfaces at the current pressure, together with the slowdown the
// service actually experienced. The monitor regresses observed slowdown on
// the features — in PCA component space, because the features are
// correlated — and hands the resulting weights w₁..w₃ back to the
// controller. Amoeba-NoM disables this and stays on the initial
// pessimistic weights w₀ = (1,1,1), the additive-accumulation assumption.
package monitor

import (
	"fmt"

	"amoeba/internal/meters"
	"amoeba/internal/metrics"
	"amoeba/internal/obs"
	"amoeba/internal/pca"
	"amoeba/internal/serverless"
	"amoeba/internal/sim"
	"amoeba/internal/stats"
	"amoeba/internal/units"
)

// Weights is a calibrated Eq. 6 weight vector for one service.
type Weights struct {
	W         [3]float64
	Intercept float64
	Learned   bool // false until enough heartbeat samples arrived
}

// InitialWeights returns w₀ — the weights the controller must use before
// (or, for Amoeba-NoM, instead of) calibration. Uncalibrated predictions
// must never let a switch-in violate QoS, so w₀ is pessimistic on two
// axes (§VII-C: "Amoeba-NoM has to pessimistically assume that the QoS
// degradations ... are accumulated"):
//
//   - per-resource degradations fully accumulate AND carry a sampling
//     -uncertainty margin (w_i = 1.4 instead of the calibrated <1), and
//   - a baseline interference floor (the intercept) covers contention
//     below the meters' noise floor.
//
// PCA calibration replaces all of this with the fitted linear model,
// which is what makes Amoeba switch earlier than Amoeba-NoM (Fig. 14).
func InitialWeights() Weights {
	return Weights{W: [3]float64{1.4, 1.4, 1.4}, Intercept: 0.20}
}

// Predict returns the slowdown (>= 1) for the given degradation features.
// The prediction is clamped to at least the largest single-resource
// degradation: contention on several resources can never hurt less than
// the worst one alone.
func (w Weights) Predict(e [3]float64) float64 {
	s := w.Intercept
	floor := 0.0
	for i, x := range e {
		s += w.W[i] * x
		if x > floor {
			floor = x
		}
	}
	if s < floor {
		s = floor
	}
	return 1 + s
}

// Config tunes the monitor.
type Config struct {
	// MeterQPS is the probing rate per meter (paper: 1 QPS).
	MeterQPS units.QPS
	// SamplePeriod is how often the monitor refreshes its pressure
	// estimate from the meters' latencies, a fixed 10 s, and the epoch at
	// which core.RunSharded's shards exchange pressure. The heartbeat and
	// decision period T that Eq. 8 bounds is another value: the engine's
	// SamplePeriod, which core computes per service.
	SamplePeriod units.Seconds
	// Window is the number of heartbeat samples kept per service.
	Window int
	// MinSamples is how many samples are needed before PCA calibration
	// replaces w₀.
	MinSamples int
	// UsePCA enables weight calibration; false reproduces Amoeba-NoM.
	UsePCA bool
	// MeterEWMAAlpha smooths meter latencies between periods.
	MeterEWMAAlpha units.Fraction
}

// DefaultConfig returns the evaluation configuration.
func DefaultConfig() Config {
	return Config{
		MeterQPS:       1,
		SamplePeriod:   10,
		Window:         240,
		MinSamples:     12,
		UsePCA:         true,
		MeterEWMAAlpha: 0.12,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.MeterQPS <= 0 || c.SamplePeriod <= 0 {
		return fmt.Errorf("monitor: non-positive rates/periods")
	}
	if c.Window < c.MinSamples || c.MinSamples < 4 {
		return fmt.Errorf("monitor: window %d / min samples %d malformed", c.Window, c.MinSamples)
	}
	if c.MeterEWMAAlpha <= 0 || c.MeterEWMAAlpha > 1 {
		return fmt.Errorf("monitor: EWMA alpha %v out of (0,1]", c.MeterEWMAAlpha)
	}
	return nil
}

// sampleWindow is one service's heartbeat samples: degradation
// features and the observed slowdown − 1, in a ring of Config.Window.
type sampleWindow struct {
	samples *pca.Window
	weights Weights
}

// Monitor is the contention-monitor daemon.
type Monitor struct {
	sim    *sim.Simulator
	pool   *serverless.Platform
	cfg    Config
	bus    *obs.Bus
	curves [3]*meters.Curve

	meterLat  [3]*stats.EWMA
	pressure  [3]float64
	services  map[string]*sampleWindow
	started   bool
	meterCPUs float64 // CPU-seconds consumed by meters (overhead tracking)

	tracer *obs.Tracer
	// lastMeterSpan is the span of the most recent MeterSample — the
	// causal source of every pressure reading handed downstream until
	// the next refresh.
	lastMeterSpan obs.SpanID

	// The events the monitor lends to the bus, one reused struct of
	// each kind: sinks copy what they keep (DESIGN.md §21).
	meterEv obs.MeterSample
	beatEv  obs.HeartbeatSample
}

// New creates a monitor against the given platform. The meter functions
// are registered on the platform here; Start launches the probing.
// It panics if the config or any meter curve is missing or invalid.
func New(s *sim.Simulator, pool *serverless.Platform, curves [3]*meters.Curve, cfg Config) *Monitor {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	for i, c := range curves {
		if c == nil {
			panic(fmt.Sprintf("monitor: missing curve %d", i))
		}
		if err := c.Validate(); err != nil {
			panic(err)
		}
	}
	m := &Monitor{
		sim:      s,
		pool:     pool,
		cfg:      cfg,
		curves:   curves,
		services: make(map[string]*sampleWindow),
	}
	for i := range m.meterLat {
		m.meterLat[i] = stats.NewEWMA(cfg.MeterEWMAAlpha.Raw())
	}
	for _, mt := range meters.All() {
		mt := mt
		m.pool.Register(mt.Profile, func(r metrics.QueryRecord) {
			if r.Breakdown.ColdStart > 0 {
				return // a stray cold start says nothing about contention
			}
			m.meterLat[mt.Index].Update(r.Latency())
			m.meterCPUs += mt.Profile.Demand.CPU * r.Breakdown.Exec
		})
	}
	return m
}

// NewReplica creates a shard-local monitor replica: it holds the
// heartbeat windows and PCA calibration state for the services of one
// shard, but runs no meters of its own — the daemon monitor on the
// reserved namespace-0 cell probes the contention, and the sharded
// runtime pushes its pressure estimate into every replica at each
// epoch barrier via PushSample (DESIGN.md §15). Between barriers the
// replica serves Pressure/WeightsFor/Heartbeat exactly like the
// daemon, so the execution engine is oblivious to the split.
// It panics if the config is invalid.
func NewReplica(s *sim.Simulator, cfg Config) *Monitor {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Monitor{
		sim:      s,
		cfg:      cfg,
		services: make(map[string]*sampleWindow),
	}
	for i := range m.meterLat {
		m.meterLat[i] = stats.NewEWMA(cfg.MeterEWMAAlpha.Raw())
	}
	return m
}

// PushSample installs an externally measured pressure estimate and the
// meter span it derives from. The sharded runtime calls this on every
// replica at each epoch barrier with the daemon monitor's latest
// refresh, replacing the periodic self-refresh a daemon would run.
//
//amoeba:noalloc
func (m *Monitor) PushSample(pressure [3]float64, meterSpan obs.SpanID) {
	m.pressure = pressure
	if meterSpan != 0 {
		m.lastMeterSpan = meterSpan
	}
}

// SetBus attaches the telemetry bus; the monitor emits MeterSample on
// every pressure refresh and HeartbeatSample on every calibration
// sample. A nil bus (the default) keeps emission sites on their
// zero-cost path.
func (m *Monitor) SetBus(b *obs.Bus) { m.bus = b }

// SetTracer attaches the causal tracer; meter samples and heartbeats
// then carry trace/span IDs, with heartbeats causally linked to the
// meter sample their pressure inputs derived from. A nil tracer (the
// default) leaves them untraced.
func (m *Monitor) SetTracer(t *obs.Tracer) { m.tracer = t }

// LastMeterSpan returns the span ID of the most recent pressure
// refresh (0 when untraced or before the first refresh). Consumers of
// Pressure() use it as the causal edge back to the sample.
func (m *Monitor) LastMeterSpan() obs.SpanID { return m.lastMeterSpan }

// Start launches the meter probes and the periodic pressure update.
// It panics if called twice.
func (m *Monitor) Start() {
	if m.started {
		panic("monitor: Start called twice")
	}
	m.started = true
	period := m.cfg.MeterQPS.Period()
	for _, mt := range meters.All() {
		name := mt.Profile.Name
		// Keep one container warm per meter so probes measure contention,
		// not cold starts.
		m.pool.Prewarm(name, 1, nil)
		m.sim.Every(period.Raw(), m.pool.Bind(name).Invoke)
	}
	m.sim.Every(m.cfg.SamplePeriod.Raw(), m.refresh)
}

// refresh recomputes the pressure estimate from smoothed meter latencies.
func (m *Monitor) refresh() {
	for i := range m.pressure {
		if m.meterLat[i].Initialized() {
			m.pressure[i] = m.curves[i].PressureFor(units.Seconds(m.meterLat[i].Value()))
		}
	}
	if m.bus.Active() {
		trace := m.tracer.StartTrace()
		span := m.tracer.NextSpan()
		if span != 0 {
			m.lastMeterSpan = span
		}
		m.meterEv = obs.MeterSample{
			At: units.Seconds(m.sim.Now()),
			Latency: [3]units.Seconds{
				units.Seconds(m.meterLat[0].Value()),
				units.Seconds(m.meterLat[1].Value()),
				units.Seconds(m.meterLat[2].Value()),
			},
			Pressure: m.pressure,
			Trace:    trace,
			Span:     span,
		}
		m.bus.Emit(&m.meterEv)
	}
}

// Pressure returns the latest quantified pressure estimate
// P = {P_cpu, P_io, P_net} (§IV-B Measurement).
func (m *Monitor) Pressure() [3]float64 { return m.pressure }

// MeterCPUSeconds returns the cumulative CPU consumed by the meter probes
// (§VII-E's overhead metric).
func (m *Monitor) MeterCPUSeconds() float64 { return m.meterCPUs }

// Heartbeat ingests one calibration sample for a service: the degradation
// features the surfaces predicted and the slowdown actually observed.
// This is the "heartbeat package ... sent from the execution engine to
// contention monitor" of §VI-A. A service's first heartbeat allocates
// its window; later ones, and the refits they trigger, allocate nothing,
// observed or not.
func (m *Monitor) Heartbeat(service string, features [3]float64, observedSlowdown float64) {
	if observedSlowdown < 1 {
		observedSlowdown = 1
	}
	win, ok := m.services[service]
	if !ok {
		win = &sampleWindow{samples: pca.NewWindow(m.cfg.Window), weights: InitialWeights()}
		m.services[service] = win
	}
	win.samples.Push(features, observedSlowdown-1)
	if m.cfg.UsePCA && win.samples.Len() >= m.cfg.MinSamples {
		m.recalibrate(win)
	}
	if m.bus.Active() {
		m.beatEv = obs.HeartbeatSample{
			At:        units.Seconds(m.sim.Now()),
			Service:   service,
			Features:  features,
			Observed:  observedSlowdown,
			Window:    win.samples.Len(),
			Weights:   win.weights.W,
			Intercept: win.weights.Intercept,
			Learned:   win.weights.Learned,
			Trace:     m.tracer.StartTrace(),
			Span:      m.tracer.NextSpan(),
			MeterSpan: m.lastMeterSpan,
		}
		m.bus.Emit(&m.beatEv)
	}
}

// recalibrate refits the PCA regression for one service's window,
// updating w₀ → w_n (§VI-A).
//
//amoeba:noalloc
func (m *Monitor) recalibrate(win *sampleWindow) {
	informative := false
	for i := 0; i < win.samples.Len() && !informative; i++ {
		f := win.samples.Row(i)
		informative = f[0] > 1e-6 || f[1] > 1e-6 || f[2] > 1e-6
	}
	if !informative {
		// All-zero features (no contention observed yet): keep w₀, any
		// fit would be degenerate.
		return
	}
	var w Weights
	w.W, w.Intercept = win.samples.Refit()
	// Clamp against wild extrapolation from a noisy window: weights far
	// outside [0, w0] have no physical reading (a resource cannot undo
	// more degradation than exists, nor amplify it several-fold).
	for i := range w.W {
		if w.W[i] < -0.5 {
			w.W[i] = -0.5
		}
		if w.W[i] > 2 {
			w.W[i] = 2
		}
	}
	if w.Intercept > 0.5 {
		w.Intercept = 0.5
	}
	if w.Intercept < -0.5 {
		w.Intercept = -0.5
	}
	w.Learned = true
	win.weights = w
}

// WeightsFor returns the calibrated weights for a service (w₀ until the
// window fills or when PCA is disabled).
func (m *Monitor) WeightsFor(service string) Weights {
	if win, ok := m.services[service]; ok {
		return win.weights
	}
	return InitialWeights()
}
