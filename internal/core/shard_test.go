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
	"amoeba/internal/units"
)

// shardedStream runs a fleet scenario on the sharded kernel and returns
// its JSONL event stream and result.
func shardedStream(t *testing.T, n int, seed uint64, duration units.Seconds, shards int) ([]byte, *Result) {
	t.Helper()
	sc := FleetScenario(n, seed, duration)
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
		refStream, refRes := shardedStream(t, 10, seed, 120, 1)
		refTable := resultTable(refRes)
		for _, k := range []int{2, 4, 8} {
			stream, res := shardedStream(t, 10, seed, 120, k)
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
	a, resA := shardedStream(t, 6, 7, 60, 4)
	b, resB := shardedStream(t, 6, 7, 60, 2)
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
		RunSharded(FleetScenario(2, 1, 30), 0)
	}()

	ref, _ := shardedStream(t, 2, 9, 60, 1)
	big, _ := shardedStream(t, 2, 9, 60, 1000) // 6 cells; clamps to 6
	if !bytes.Equal(ref, big) {
		t.Fatal("clamped oversized shard count changed the stream")
	}
}

// TestRunShardedVariants checks the sharded kernel wires every variant:
// the baselines run without a monitor daemon, the ablations with one.
func TestRunShardedVariants(t *testing.T) {
	skipIfRace(t)
	for _, v := range []Variant{VariantAmoebaNoM, VariantAmoebaNoP, VariantNameko, VariantOpenWhisk, VariantAutoscale} {
		sc := FleetScenario(4, 5, 60)
		sc.Variant = v
		res := RunSharded(sc, 3)
		if len(res.Services) != 4 {
			t.Fatalf("%v: %d service results, want 4", v, len(res.Services))
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

// TestSyntheticFleet pins the fleet generator: deterministic in (n,
// seed), validating as a scenario, skewed across services, and panicking
// on a non-positive count.
func TestSyntheticFleet(t *testing.T) {
	a := SyntheticFleet(100, 7)
	b := SyntheticFleet(100, 7)
	if len(a) != 100 {
		t.Fatalf("fleet size %d, want 100", len(a))
	}
	sc := Scenario{Variant: VariantAmoeba, Services: a, Duration: 60, Seed: 7}
	if err := sc.Validate(); err != nil {
		t.Fatalf("fleet scenario invalid: %v", err)
	}
	peaks := make(map[float64]bool)
	for i := range a {
		if a[i].Profile.Name != b[i].Profile.Name {
			t.Fatalf("service %d name differs across identical seeds", i)
		}
		if pa, pb := a[i].Trace.Peak(), b[i].Trace.Peak(); pa != pb {
			t.Fatalf("service %d peak %v != %v across identical seeds", i, pa, pb)
		}
		peaks[a[i].Trace.Peak()] = true
	}
	if len(peaks) < 50 {
		t.Fatalf("only %d distinct peak rates across 100 services — skew missing", len(peaks))
	}
	if c := SyntheticFleet(100, 8); a[0].Trace.Peak() == c[0].Trace.Peak() {
		t.Fatal("different seeds produced identical first-service peaks")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("SyntheticFleet(0) did not panic")
			}
		}()
		SyntheticFleet(0, 1)
	}()
}

// TestSurfaceSetSharedAcrossRenamedClones pins the content-keyed memo:
// two profiles differing only in name share one profiled build (same
// surface pointers) while each keeps its own service label.
func TestSurfaceSetSharedAcrossRenamedClones(t *testing.T) {
	skipIfRace(t)
	cfg := serverless.DefaultConfig()
	fleet := SyntheticFleet(10, 3)
	base, clone := fleet[0].Profile, fleet[5].Profile // same archetype, different names
	if base.Name == clone.Name {
		t.Fatalf("fixture broken: %q == %q", base.Name, clone.Name)
	}
	sa := SurfaceSet(base, cfg)
	sb := SurfaceSet(clone, cfg)
	if sa.Service != base.Name || sb.Service != clone.Name {
		t.Fatalf("service labels %q/%q, want %q/%q", sa.Service, sb.Service, base.Name, clone.Name)
	}
	if sa.Surfaces != sb.Surfaces {
		t.Fatal("renamed clone re-profiled instead of sharing the cached surfaces")
	}
}
