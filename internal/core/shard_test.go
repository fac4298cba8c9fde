package core

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"amoeba/internal/contention"
	"amoeba/internal/monitor"
	"amoeba/internal/obs"
	"amoeba/internal/serverless"
	"amoeba/internal/sim"
	"amoeba/internal/trace"
	"amoeba/internal/units"
	"amoeba/internal/workload"
)

// paperGrid is §VII-A's setup with all five benchmarks at once, each on
// its own diurnal day, beside the three background tenants. With the
// monitor daemon that is 9 cells, enough for 8 workers.
func paperGrid(seed uint64, day units.Seconds) Scenario {
	var svcs []ServiceSpec
	for i, prof := range workload.All() {
		tr := trace.NewDiurnal(prof.PeakQPS, prof.PeakQPS*0.2, day.Raw(), seed+uint64(i))
		svcs = append(svcs, ServiceSpec{Profile: prof, Trace: tr})
	}
	return Scenario{
		Variant:    VariantAmoeba,
		Services:   svcs,
		Background: BackgroundTenants(day, seed+7),
		Duration:   day,
		Seed:       seed,
	}
}

// shardedStream runs the paper grid over one day on the sharded kernel
// and returns its JSONL event stream and result.
func shardedStream(t *testing.T, seed uint64, day units.Seconds, shards int) ([]byte, *Result) {
	t.Helper()
	sc := paperGrid(seed, day)
	var buf bytes.Buffer
	bus := obs.NewBus()
	w := obs.NewJSONLWriter(&buf)
	bus.Attach(w)
	sc.Bus = bus
	res := RunSharded(sc, shards)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	if w.Count() == 0 {
		t.Fatal("sharded run emitted no events")
	}
	return buf.Bytes(), res
}

// resultTable projects a Result onto a comparable string: every field
// the acceptance contract covers, per service in canonical order.
func resultTable(res *Result) string {
	var b bytes.Buffer
	names := make([]string, 0, len(res.Services))
	for name := range res.Services {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sr := res.Services[name]
		fmt.Fprintf(&b, "%s n=%d p95=%.9f viol=%.9f iaas=%v sl=%v cpu=%.9f dec=%d blocked=%d w=%v\n",
			name, sr.Collector.Count(), sr.Collector.P95(), sr.Collector.ViolationFraction(),
			sr.IaaSUsage, sr.ServerlessUsage, sr.ConsumedCPUSeconds,
			len(sr.Decisions), sr.BlockedSwitches, sr.FinalWeights)
	}
	bgNames := make([]string, 0, len(res.Background))
	for name := range res.Background {
		bgNames = append(bgNames, name)
	}
	sort.Strings(bgNames)
	for _, name := range bgNames {
		coll := res.Background[name]
		fmt.Fprintf(&b, "bg %s n=%d p95=%.9f\n", name, coll.Count(), coll.P95())
	}
	fmt.Fprintf(&b, "meter=%.9f events=%d\n", res.MeterCPUSeconds, res.Events)
	return b.String()
}

// TestRunShardedDeterministicAcrossShardCounts is the tentpole's
// acceptance contract: for each seed, the JSONL event stream and the
// Result tables must be identical for every shard count, including
// K=1 — the worker partitioning must be invisible in the output.
func TestRunShardedDeterministicAcrossShardCounts(t *testing.T) {
	skipIfRace(t)
	for _, seed := range []uint64{3, 11, 42} {
		refStream, refRes := shardedStream(t, seed, 120, 1)
		refTable := resultTable(refRes)
		for _, k := range []int{2, 4, 8} {
			stream, res := shardedStream(t, seed, 120, k)
			if !bytes.Equal(refStream, stream) {
				t.Fatalf("seed %d: JSONL stream at shards=%d differs from shards=1", seed, k)
			}
			if table := resultTable(res); table != refTable {
				t.Fatalf("seed %d: result table at shards=%d differs from shards=1:\n%s\nvs\n%s",
					seed, k, table, refTable)
			}
		}
	}
}

// TestRunShardedRaceShort is the -race variant of the determinism
// contract: a short horizon with enough cells that every worker owns
// several, exercising the job hand-off and barrier happens-before
// edges under the detector.
func TestRunShardedRaceShort(t *testing.T) {
	a, resA := shardedStream(t, 7, 60, 4)
	b, resB := shardedStream(t, 7, 60, 2)
	if !bytes.Equal(a, b) {
		t.Fatal("short-horizon streams differ between shards=4 and shards=2")
	}
	if resultTable(resA) != resultTable(resB) {
		t.Fatal("short-horizon result tables differ between shards=4 and shards=2")
	}
}

// TestRunShardedClampsAndRejects pins the shard-count edge cases: a
// non-positive count panics, a count beyond the cell count is clamped
// (and still deterministic against K=1).
func TestRunShardedClampsAndRejects(t *testing.T) {
	skipIfRace(t)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("RunSharded(0) did not panic")
			}
		}()
		RunSharded(paperGrid(1, 30), 0)
	}()

	ref, _ := shardedStream(t, 9, 60, 1)
	big, _ := shardedStream(t, 9, 60, 1000) // 9 cells; clamps to 9
	if !bytes.Equal(ref, big) {
		t.Fatal("clamped oversized shard count changed the stream")
	}
}

// TestRunShardedVariants checks the sharded kernel wires every variant:
// the baselines run without a monitor daemon, the ablations with one.
func TestRunShardedVariants(t *testing.T) {
	skipIfRace(t)
	for _, v := range []Variant{VariantAmoebaNoM, VariantAmoebaNoP, VariantNameko, VariantOpenWhisk, VariantAutoscale} {
		sc := paperGrid(5, 60)
		sc.Variant = v
		res := RunSharded(sc, 3)
		if len(res.Services) != len(sc.Services) {
			t.Fatalf("%v: %d service results, want %d", v, len(res.Services), len(sc.Services))
		}
		for name, sr := range res.Services {
			if sr.Collector == nil || sr.Collector.Count() == 0 {
				t.Fatalf("%v: service %s served no queries", v, name)
			}
		}
		if v.hybrid() && res.MeterCPUSeconds == 0 {
			t.Fatalf("%v: no meter overhead recorded", v)
		}
		if !v.hybrid() && res.MeterCPUSeconds != 0 {
			t.Fatalf("%v: unexpected meter overhead %v", v, res.MeterCPUSeconds)
		}
	}
}

// barrierFixture assembles a minimal shardRun — a daemon-sized replica
// cell plus two service-like replica cells — for the hot-loop alloc
// contract. Monitor replicas stand in for the daemon: the barrier only
// reads Pressure/LastMeterSpan, which replicas serve identically.
func barrierFixture() *shardRun {
	slCfg := serverless.DefaultConfig()
	monCfg := monitor.DefaultConfig()
	r := &shardRun{model: contention.NewModel(slCfg.Node.Capacity())}
	for ns := 0; ns < 3; ns++ {
		c := &cell{ns: ns, sim: sim.New(shardSeed(1, ns))}
		c.pool = serverless.New(c.sim, slCfg)
		c.pool.SetSharedPressure(contention.Pressure{})
		c.mon = monitor.NewReplica(c.sim, monCfg)
		r.cells = append(r.cells, c)
	}
	r.daemon = r.cells[0]
	return r
}

// TestShardBarrierZeroAlloc asserts the epoch barrier — demand
// aggregation, pressure freeze, and monitor relay — allocates nothing,
// backing the //amoeba:noalloc annotations on the shard hot loop.
//
//amoeba:alloctest core.shardRun.barrier serverless.Platform.SetSharedPressure
//amoeba:alloctest serverless.Platform.currentPressure monitor.Monitor.PushSample
func TestShardBarrierZeroAlloc(t *testing.T) {
	r := barrierFixture()
	if allocs := testing.AllocsPerRun(200, func() {
		r.barrier()
		_ = r.cells[1].pool.Pressure() // currentPressure in shared mode
	}); allocs != 0 {
		t.Fatalf("epoch barrier allocates %.1f times per run, want 0", allocs)
	}
}

// TestSharedPressureFreezesSlowdownInput pins the shared-pressure mode:
// once installed, the platform reports the external pressure regardless
// of its own demand, until the next install.
func TestSharedPressureFreezesSlowdownInput(t *testing.T) {
	s := sim.New(1)
	p := serverless.New(s, serverless.DefaultConfig())
	if got := p.Pressure(); got != (contention.Pressure{}) {
		t.Fatalf("idle platform pressure = %+v, want zero", got)
	}
	want := contention.Pressure{CPU: 0.25, IO: 0.5, Net: 0.125}
	p.SetSharedPressure(want)
	if got := p.Pressure(); got != want {
		t.Fatalf("shared pressure = %+v, want %+v", got, want)
	}
	// Self-derived demand no longer feeds the reading.
	p.InjectDemand(serverless.DefaultConfig().Node.Capacity().Scale(0.5))
	if got := p.Pressure(); got != want {
		t.Fatalf("pressure after demand injection = %+v, want frozen %+v", got, want)
	}
	next := contention.Pressure{CPU: 0.75}
	p.SetSharedPressure(next)
	if got := p.Pressure(); got != next {
		t.Fatalf("refreshed shared pressure = %+v, want %+v", got, next)
	}
}

// TestMonitorReplicaRelay pins the replica half of the split monitor:
// PushSample installs the daemon's estimate and meter span, heartbeats
// calibrate locally, and the zero-span guard keeps the last causal
// edge.
func TestMonitorReplicaRelay(t *testing.T) {
	m := monitor.NewReplica(sim.New(1), monitor.DefaultConfig())
	if got := m.Pressure(); got != [3]float64{} {
		t.Fatalf("fresh replica pressure = %v, want zero", got)
	}
	m.PushSample([3]float64{0.1, 0.2, 0.3}, 42)
	if got := m.Pressure(); got != [3]float64{0.1, 0.2, 0.3} {
		t.Fatalf("pressure = %v after push", got)
	}
	if got := m.LastMeterSpan(); got != 42 {
		t.Fatalf("meter span = %d, want 42", got)
	}
	m.PushSample([3]float64{0.4, 0.5, 0.6}, 0) // untraced daemon: span kept
	if got := m.LastMeterSpan(); got != 42 {
		t.Fatalf("meter span = %d after zero push, want 42", got)
	}
	cfg := monitor.DefaultConfig()
	for i := 0; i < cfg.MinSamples+1; i++ {
		m.Heartbeat("svc", [3]float64{0.2, 0.1, 0.05}, 1.3)
	}
	if w := m.WeightsFor("svc"); !w.Learned {
		t.Fatal("replica did not calibrate from heartbeats")
	}
}
