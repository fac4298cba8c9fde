package monitor

import (
	"io"
	"math"
	"testing"

	"amoeba/internal/arrival"
	"amoeba/internal/contention"
	"amoeba/internal/meters"
	"amoeba/internal/obs"
	"amoeba/internal/resources"
	"amoeba/internal/serverless"
	"amoeba/internal/sim"
	"amoeba/internal/trace"
	"amoeba/internal/workload"
)

// pressureAt adapts a [3]float64 estimate to the model's pressure type.
func pressureAt(p [3]float64) contention.Pressure {
	return contention.Pressure{CPU: p[0], IO: p[1], Net: p[2]}
}

func TestWeightsPredict(t *testing.T) {
	w := InitialWeights()
	// w0 carries a pessimism floor even with zero observed degradation.
	if got := w.Predict([3]float64{0, 0, 0}); math.Abs(got-1.2) > 1e-12 {
		t.Errorf("no degradation predicts %v, want 1.2 (safety floor)", got)
	}
	// Pessimistic accumulation: 1 + 0.2 + 1.4·(0.1+0.2+0.3).
	if got := w.Predict([3]float64{0.1, 0.2, 0.3}); math.Abs(got-2.04) > 1e-12 {
		t.Errorf("w0 predict = %v, want 2.04", got)
	}
	// Learned weights are floored at the worst single resource.
	learned := Weights{W: [3]float64{0.01, 0.01, 0.01}, Learned: true}
	if got := learned.Predict([3]float64{0.5, 0, 0}); got < 1.5 {
		t.Errorf("prediction %v below single-resource floor 1.5", got)
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := good
	bad.SamplePeriod = 0
	if bad.Validate() == nil {
		t.Error("zero sample period accepted")
	}
	bad = good
	bad.MinSamples = 2
	if bad.Validate() == nil {
		t.Error("tiny MinSamples accepted")
	}
	bad = good
	bad.Window = good.MinSamples - 1
	if bad.Validate() == nil {
		t.Error("window < min samples accepted")
	}
}

func TestPressureEstimationTracksInjectedDemand(t *testing.T) {
	s := sim.New(2)
	cfg := serverless.DefaultConfig()
	pool := serverless.New(s, cfg)
	curves := syntheticCurvesFromModel(cfg)
	m := New(s, pool, curves, DefaultConfig())
	m.Start()

	// Hold CPU pressure at 0.5 and IO at 0.3.
	cap := cfg.Node.Capacity()
	pool.InjectDemand(resources.Vector{CPU: 0.5 * cap.CPU, DiskMBs: 0.3 * cap.DiskMBs})

	p := averageEstimate(s, m, 300)
	if math.Abs(p[0]-0.5) > 0.1 {
		t.Errorf("CPU pressure estimate %v, want ~0.5", p[0])
	}
	if math.Abs(p[1]-0.3) > 0.1 {
		t.Errorf("IO pressure estimate %v, want ~0.3", p[1])
	}
	if p[2] > 0.15 {
		t.Errorf("net pressure estimate %v, want ~0 (allowing meter self-noise)", p[2])
	}
}

// averageEstimate runs the simulation for the given duration and returns
// the time-averaged pressure estimate over the second half (the estimator
// tracks a stochastic signal, so point-in-time reads are noisy by design).
func averageEstimate(s *sim.Simulator, m *Monitor, duration float64) [3]float64 {
	var sum [3]float64
	n := 0
	s.Every(10, func() {
		if float64(s.Now()) < duration/2 {
			return
		}
		p := m.Pressure()
		for i := range sum {
			sum[i] += p[i]
		}
		n++
	})
	s.Run(sim.Time(duration))
	for i := range sum {
		sum[i] /= float64(n)
	}
	return sum
}

// syntheticCurvesFromModel builds exact curves from the contention model
// of a pool built from cfg, including the meters' own ~probe-level
// contribution being negligible.
func syntheticCurvesFromModel(cfg serverless.Config) [3]*meters.Curve {
	model := contention.NewModel(cfg.Node.Capacity())
	var out [3]*meters.Curve
	for _, mt := range meters.All() {
		grid := []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2}
		lats := make([]float64, len(grid))
		for i, pr := range grid {
			var cp [3]float64
			cp[mt.Index] = pr
			slow := model.Slowdown(pressureAt(cp), mt.Profile.Sensitivity)
			lats[i] = mt.Profile.ExecTime*slow + mt.Profile.Overheads.Total()
		}
		out[mt.Index] = &meters.Curve{Meter: mt, Pressures: grid, Latencies: lats}
	}
	return out
}

func TestHeartbeatCalibrationConvergesToTruth(t *testing.T) {
	// Feed the monitor samples from a known sub-additive ground truth
	// (slowdown = 1 + sqrt(e1²+e2²+e3²)); calibrated weights must predict
	// far better than w0 on held-out points near the sampled region.
	s := sim.New(3)
	cfg := serverless.DefaultConfig()
	pool := serverless.New(s, cfg)
	m := New(s, pool, syntheticCurvesFromModel(cfg), DefaultConfig())

	rng := sim.NewRNG(7)
	truth := func(e [3]float64) float64 {
		return 1 + math.Sqrt(e[0]*e[0]+e[1]*e[1]+e[2]*e[2])
	}
	var held [][3]float64
	for i := 0; i < 120; i++ {
		e := [3]float64{rng.Uniform(0, 0.5), rng.Uniform(0, 0.4), rng.Uniform(0, 0.2)}
		if i%10 == 0 {
			held = append(held, e)
			continue
		}
		m.Heartbeat("svc", e, truth(e))
	}
	w := m.WeightsFor("svc")
	if !w.Learned {
		t.Fatal("weights never calibrated")
	}
	w0 := InitialWeights()
	var errW, errW0 float64
	for _, e := range held {
		y := truth(e)
		errW += math.Abs(w.Predict(e) - y)
		errW0 += math.Abs(w0.Predict(e) - y)
	}
	if errW >= errW0 {
		t.Errorf("calibrated error %v not better than w0 error %v", errW, errW0)
	}
	// w0 is pessimistic: it must overestimate the sub-additive truth.
	overEst := 0
	for _, e := range held {
		if w0.Predict(e) >= truth(e) {
			overEst++
		}
	}
	if overEst < len(held) {
		t.Errorf("w0 overestimated only %d/%d held-out points", overEst, len(held))
	}
}

func TestNoPCAKeepsInitialWeights(t *testing.T) {
	s := sim.New(4)
	cfg := serverless.DefaultConfig()
	pool := serverless.New(s, cfg)
	mcfg := DefaultConfig()
	mcfg.UsePCA = false // Amoeba-NoM
	m := New(s, pool, syntheticCurvesFromModel(cfg), mcfg)
	for i := 0; i < 100; i++ {
		m.Heartbeat("svc", [3]float64{0.3, 0.2, 0.1}, 1.4)
	}
	w := m.WeightsFor("svc")
	if w.Learned {
		t.Error("NoM variant learned weights")
	}
	if w != InitialWeights() {
		t.Errorf("NoM weights %+v changed from w0", w)
	}
}

func TestHeartbeatWindowBounded(t *testing.T) {
	s := sim.New(5)
	cfg := serverless.DefaultConfig()
	pool := serverless.New(s, cfg)
	mcfg := DefaultConfig()
	mcfg.Window = 20
	mcfg.MinSamples = 5
	m := New(s, pool, syntheticCurvesFromModel(cfg), mcfg)
	for i := 0; i < 100; i++ {
		m.Heartbeat("svc", [3]float64{0.1 * float64(i%5), 0, 0}, 1.1)
	}
	if got := m.services["svc"].samples.Len(); got != 20 {
		t.Errorf("window holds %d samples, want 20", got)
	}
}

func TestZeroFeatureWindowKeepsW0(t *testing.T) {
	// With no contention observed, recalibration must not produce a
	// degenerate fit.
	s := sim.New(6)
	cfg := serverless.DefaultConfig()
	pool := serverless.New(s, cfg)
	m := New(s, pool, syntheticCurvesFromModel(cfg), DefaultConfig())
	for i := 0; i < 50; i++ {
		m.Heartbeat("svc", [3]float64{}, 1.0)
	}
	w := m.WeightsFor("svc")
	if w.Learned {
		t.Error("learned weights from all-zero features")
	}
}

func TestMeterOverheadTracked(t *testing.T) {
	s := sim.New(7)
	cfg := serverless.DefaultConfig()
	pool := serverless.New(s, cfg)
	m := New(s, pool, syntheticCurvesFromModel(cfg), DefaultConfig())
	m.Start()
	s.Run(200)
	if m.MeterCPUSeconds() <= 0 {
		t.Error("meter CPU overhead not tracked")
	}
	// §VII-E: total meter overhead ≈ 1% of one node's CPU. Our three
	// meters at 1 QPS: CPU meter 1.0×0.05 + io 0.1×0.05 + net 0.05×0.05
	// ≈ 0.0575 core-s per second = 0.14% of 40 cores.
	frac := m.MeterCPUSeconds() / (200 * cfg.Node.Capacity().CPU)
	if frac > 0.011 {
		t.Errorf("meter overhead %.4f of platform CPU, want ~1%% or less", frac)
	}
}

func TestStartTwicePanics(t *testing.T) {
	s := sim.New(8)
	cfg := serverless.DefaultConfig()
	pool := serverless.New(s, cfg)
	m := New(s, pool, syntheticCurvesFromModel(cfg), DefaultConfig())
	m.Start()
	defer func() {
		if recover() == nil {
			t.Error("double Start did not panic")
		}
	}()
	m.Start()
}

func TestMonitorWithLiveBackground(t *testing.T) {
	// End-to-end: background services generate contention; the monitor's
	// estimate must be positive on the loaded resource and near zero on
	// unloaded ones.
	s := sim.New(9)
	cfg := serverless.DefaultConfig()
	pool := serverless.New(s, cfg)
	m := New(s, pool, syntheticCurvesFromModel(cfg), DefaultConfig())
	m.Start()

	hog := workload.Float()
	hog.Name = "hog"
	pool.Register(hog, nil, serverless.WithNMax(64))
	gen := arrival.New(s, trace.Constant{QPS: 100}, func(sim.Time) { pool.Bind("hog").Invoke() })
	gen.Start()

	p := averageEstimate(s, m, 400)
	// ~100 QPS × 0.11s × 1 core ≈ 11 cores ≈ 0.28 pressure.
	if p[0] < 0.12 || p[0] > 0.5 {
		t.Errorf("CPU pressure estimate %v, want ~0.28", p[0])
	}
	if p[1] > 0.12 {
		t.Errorf("IO pressure estimate %v for a CPU-only hog", p[1])
	}
}

// TestZeroAllocHeartbeat: on an unobserved monitor, a heartbeat into a
// full window, with the refit it triggers, allocates nothing. The window
// is a ring allocated at the service's first heartbeat, and the refit
// computes on fixed-size arrays.
//
//amoeba:alloctest monitor.Monitor.recalibrate pca.Window.Push pca.Window.Refit
func TestZeroAllocHeartbeat(t *testing.T) {
	cfg := DefaultConfig()
	m := NewReplica(sim.New(10), cfg)
	rng := sim.NewRNG(11)
	beat := func() {
		e := [3]float64{0.3 * rng.Float64(), 0.2 * rng.Float64(), 0.1 * rng.Float64()}
		m.Heartbeat("svc", e, 1+0.8*e[0]+0.5*e[1]+0.3*e[2]+0.01*rng.Float64())
	}
	for i := 0; i < cfg.Window; i++ {
		beat()
	}
	before := m.WeightsFor("svc")
	if !before.Learned || m.services["svc"].samples.Len() != cfg.Window {
		t.Fatalf("window of %d samples, weights %+v: want a full, calibrated window", m.services["svc"].samples.Len(), before)
	}
	if avg := testing.AllocsPerRun(200, beat); avg != 0 {
		t.Errorf("a heartbeat with its refit allocates %.2f objects, want 0", avg)
	}
	if after := m.WeightsFor("svc"); after == before {
		t.Errorf("weights %+v did not move over 201 refits", after)
	}
}

// TestZeroAllocHeartbeatObserved: on a monitor whose bus carries a
// tracer, a JSONL writer and a metrics sink, a heartbeat into a full
// window, with its refit, and a pressure refresh allocate nothing once
// the writer's batches have grown. The monitor lends one reused event of
// each kind, and the writer copies them.
//
//amoeba:alloctest monitor.Monitor.recalibrate pca.Window.Push pca.Window.Refit
//amoeba:alloctest obs.Bus.Emit obs.JSONLWriter.Consume obs.MetricsSink.Consume
func TestZeroAllocHeartbeatObserved(t *testing.T) {
	cfg := DefaultConfig()
	m := NewReplica(sim.New(10), cfg)
	bus := obs.NewBus()
	w := obs.NewJSONLWriter(io.Discard)
	bus.Attach(w)
	bus.Attach(obs.NewMetricsSink(obs.NewRegistry()))
	m.SetBus(bus)
	m.SetTracer(obs.NewTracer(bus))
	rng := sim.NewRNG(11)
	cycle := func() {
		e := [3]float64{0.3 * rng.Float64(), 0.2 * rng.Float64(), 0.1 * rng.Float64()}
		m.Heartbeat("svc", e, 1+0.8*e[0]+0.5*e[1]+0.3*e[2]+0.01*rng.Float64())
		m.refresh()
	}
	const warm = 4096 // two events per cycle: every batch fills several times
	for i := 0; i < warm; i++ {
		cycle()
	}
	if !m.WeightsFor("svc").Learned || m.services["svc"].samples.Len() != cfg.Window {
		t.Fatalf("window of %d samples, weights %+v: want a full, calibrated window", m.services["svc"].samples.Len(), m.WeightsFor("svc"))
	}
	if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
		t.Errorf("an observed heartbeat with its refit and a refresh allocate %.2f objects, want 0", avg)
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	if n := w.Count(); n != 2*(warm+1001) {
		t.Fatalf("wrote %d events, want a heartbeat and a meter sample for each of %d cycles", n, warm+1001)
	}
}
