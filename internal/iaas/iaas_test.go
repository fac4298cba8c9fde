package iaas

import (
	"io"
	"math"
	"testing"

	"amoeba/internal/arrival"
	"amoeba/internal/metrics"
	"amoeba/internal/obs"
	"amoeba/internal/queueing"
	"amoeba/internal/sim"
	"amoeba/internal/trace"
	"amoeba/internal/workload"
)

func newPlatform(seed uint64) (*sim.Simulator, *Platform) {
	s := sim.New(seed)
	return s, New(s)
}

func TestProvisionSlotsSatisfiesQoSAnalytically(t *testing.T) {
	for _, prof := range workload.All() {
		slots := ProvisionSlots(prof)
		mu := 1 / (prof.ExecTime + prof.Overheads.Processing)
		q := queueing.MMN{Lambda: prof.PeakQPS, Mu: mu, N: slots}
		if !q.Stable() {
			t.Errorf("%s: %d slots unstable at peak", prof.Name, slots)
			continue
		}
		if !q.QoSSatisfied(prof.QoSTarget, 0.95) {
			t.Errorf("%s: %d slots violate QoS analytically (q95=%v > %v)",
				prof.Name, slots, q.ResponseQuantile(0.95), prof.QoSTarget)
		}
		// Just-enough: one fewer slot must fail (or be unstable).
		if slots > 1 {
			q1 := queueing.MMN{Lambda: prof.PeakQPS, Mu: mu, N: slots - 1}
			if q1.Stable() && q1.QoSSatisfied(prof.QoSTarget, 0.95) {
				t.Errorf("%s: provisioning not minimal (%d slots)", prof.Name, slots)
			}
		}
	}
}

func TestDeployAndServe(t *testing.T) {
	s, p := newPlatform(1)
	var recs []metrics.QueryRecord
	p.Deploy(workload.Float(), func(r metrics.QueryRecord) { recs = append(recs, r) })
	if !p.mustSvc("float").running {
		t.Fatal("service not running after Deploy")
	}
	s.At(1, func() { p.Bind("float").Invoke() })
	s.Run(10)
	if len(recs) != 1 {
		t.Fatalf("completed %d, want 1", len(recs))
	}
	r := recs[0]
	if r.Backend != metrics.BackendIaaS {
		t.Errorf("backend = %v", r.Backend)
	}
	if r.Breakdown.ColdStart != 0 || r.Breakdown.CodeLoad != 0 {
		t.Error("IaaS query paid serverless overheads")
	}
	if r.Breakdown.Queue != 0 {
		t.Errorf("queue = %v on an idle service", r.Breakdown.Queue)
	}
}

func TestQoSHeldAtPeakLoad(t *testing.T) {
	for _, prof := range []workload.Profile{workload.Float(), workload.DD()} {
		s, p := newPlatform(2)
		coll := metrics.NewCollector(prof.Name, prof.QoSTarget)
		p.Deploy(prof, coll.Observe)
		g := arrival.New(s, trace.Constant{QPS: prof.PeakQPS}, func(sim.Time) { p.Bind(prof.Name).Invoke() })
		g.Start()
		s.Run(400)
		if coll.Count() < 1000 {
			t.Fatalf("%s: only %d queries", prof.Name, coll.Count())
		}
		if !coll.QoSMet() {
			t.Errorf("%s: p95 %v exceeds target %v at peak on just-enough IaaS",
				prof.Name, coll.P95(), prof.QoSTarget)
		}
	}
}

func TestQueueingWhenSlotsExhausted(t *testing.T) {
	s, p := newPlatform(3)
	var recs []metrics.QueryRecord
	prof := workload.Float()
	prof.PeakQPS = 5 // small provisioning
	p.Deploy(prof, func(r metrics.QueryRecord) { recs = append(recs, r) })
	slots := p.Slots("float")
	s.At(1, func() {
		for i := 0; i < slots+3; i++ {
			p.Bind("float").Invoke()
		}
	})
	s.Run(60)
	if len(recs) != slots+3 {
		t.Fatalf("completed %d, want %d", len(recs), slots+3)
	}
	queued := 0
	for _, r := range recs {
		if r.Breakdown.Queue > 0 {
			queued++
		}
	}
	if queued != 3 {
		t.Errorf("%d queries queued, want 3", queued)
	}
}

func TestAllocationIndependentOfLoad(t *testing.T) {
	// The defining IaaS property: rented resources accrue with or without
	// traffic.
	s, p := newPlatform(4)
	p.Deploy(workload.Float(), nil)
	alloc := p.AllocFor("float")
	if alloc.CPU <= 0 || alloc.MemMB <= 0 {
		t.Fatalf("allocation = %v", alloc)
	}
	s.Run(1000) // zero queries
	u := p.UsageFor("float")
	if math.Abs(u.CPU-alloc.CPU*1000) > 1e-6 {
		t.Errorf("idle CPU usage integral = %v, want %v", u.CPU, alloc.CPU*1000)
	}
	if p.ConsumedCPUSeconds("float") != 0 {
		t.Errorf("consumed CPU = %v with no queries", p.ConsumedCPUSeconds("float"))
	}
}

func TestUtilizationLowAtTrough(t *testing.T) {
	// Fig. 2's point: at 20% of peak load the consumed/allocated ratio is
	// far below 1.
	s, p := newPlatform(5)
	prof := workload.Float()
	p.Deploy(prof, nil)
	g := arrival.New(s, trace.Constant{QPS: prof.PeakQPS * 0.2}, func(sim.Time) { p.Bind(prof.Name).Invoke() })
	g.Start()
	s.Run(500)
	allocated := p.UsageFor(prof.Name).CPU
	consumed := p.ConsumedCPUSeconds(prof.Name)
	util := consumed / allocated
	if util > 0.35 {
		t.Errorf("utilization at trough = %v, want well below peak", util)
	}
	if util <= 0 {
		t.Error("consumed nothing at 20% load")
	}
}

func TestStopDrainsAndReleases(t *testing.T) {
	s, p := newPlatform(6)
	var done int
	p.Deploy(workload.Float(), func(metrics.QueryRecord) { done++ })
	s.At(1, func() {
		for i := 0; i < 5; i++ {
			p.Bind("float").Invoke()
		}
	})
	stopped := false
	s.At(1.01, func() {
		p.Stop("float", func() { stopped = true })
	})
	s.Run(60)
	if done != 5 {
		t.Fatalf("in-flight queries lost on Stop: %d/5 done", done)
	}
	if !stopped {
		t.Fatal("Stop callback never fired")
	}
	if alloc := p.AllocFor("float"); !alloc.IsZero() {
		t.Errorf("allocation after stop = %v", alloc)
	}
	if p.mustSvc("float").running {
		t.Error("service reports running after Stop")
	}
}

func TestStartPaysBootDelay(t *testing.T) {
	s, p := newPlatform(7)
	p.Deploy(workload.Float(), nil)
	s.At(1, func() { p.Stop("float", nil) })
	var readyAt float64
	s.At(10, func() {
		p.Start("float", func() { readyAt = float64(s.Now()) })
	})
	s.Run(100)
	if math.Abs(readyAt-40) > 1e-9 { // 10 + 30s boot
		t.Errorf("ready at %v, want 40", readyAt)
	}
	if !p.mustSvc("float").running {
		t.Error("not running after Start")
	}
}

func TestStartAllocatesDuringBoot(t *testing.T) {
	s, p := newPlatform(8)
	p.Deploy(workload.Float(), nil)
	s.At(1, func() { p.Stop("float", nil) })
	s.At(10, func() { p.Start("float", nil) })
	s.At(25, func() { // mid-boot
		if p.AllocFor("float").CPU == 0 {
			t.Error("booting VMs hold no allocation")
		}
		if p.mustSvc("float").running {
			t.Error("running mid-boot")
		}
	})
	s.Run(100)
}

// TestUnknownServicePanics binds a service that was never deployed: the
// wiring, not the first query, must panic.
func TestUnknownServicePanics(t *testing.T) {
	_, p := newPlatform(12)
	p.Deploy(workload.Float(), nil)
	defer func() {
		if recover() == nil {
			t.Error("Bind of unknown service did not panic")
		}
	}()
	p.Bind("ghost")
}

func TestInvokeStoppedPanics(t *testing.T) {
	s, p := newPlatform(9)
	p.Deploy(workload.Float(), nil)
	s.At(1, func() { p.Stop("float", nil) })
	s.At(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("Invoke on stopped service did not panic")
			}
		}()
		p.Bind("float").Invoke()
	})
	s.Run(10)
}

func TestStartOnRunningIsIdempotent(t *testing.T) {
	s, p := newPlatform(10)
	p.Deploy(workload.Float(), nil)
	called := false
	s.At(1, func() { p.Start("float", func() { called = true }) })
	s.Run(10)
	if !called {
		t.Error("Start on running service never reported ready")
	}
}

func TestVMGroupGeometry(t *testing.T) {
	_, p := newPlatform(11)
	prof := workload.Matmul()
	p.Deploy(prof, nil)
	slots, vms := p.Slots(prof.Name), p.VMs(prof.Name)
	if vms*prof.VMCores != slots {
		t.Errorf("slots %d != vms %d × cores %d", slots, vms, prof.VMCores)
	}
	if alloc := p.AllocFor(prof.Name); alloc.MemMB != float64(vms)*prof.VMMemMB {
		t.Errorf("mem alloc %v, want %v", alloc.MemMB, float64(vms)*prof.VMMemMB)
	}
}

// TestZeroAllocQueryCycle asserts an Invoke→completion cycle on a free
// worker allocates nothing in steady state: the running-query record and
// its completion callback are recycled.
//
//amoeba:alloctest iaas.Invoker.Invoke iaas.Platform.startQuery iaas.Platform.finishQuery
func TestZeroAllocQueryCycle(t *testing.T) {
	s, p := newPlatform(7)
	done := 0
	p.DeployWithVMs(workload.Float(), 1, func(metrics.QueryRecord) { done++ })
	float := p.Bind("float")
	cycle := func() {
		float.Invoke()
		s.Run(s.Now() + 1)
	}
	for i := 0; i < 16; i++ { // warm the slab and the record pool
		cycle()
	}
	if done != 16 {
		t.Fatalf("warm-up completed %d queries, want 16", done)
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Errorf("Invoke→completion allocates %.2f objects per query, want 0", allocs)
	}
}

// TestZeroAllocIaaSBacklog: queries that find every worker busy wait in
// a ring, so once the backlog has reached its high-water mark, filling
// it and draining it again allocates nothing. A slice used as the FIFO
// would reallocate as its start walks forward through the array.
//
//amoeba:alloctest iaas.Invoker.Invoke iaas.Platform.startQuery iaas.Platform.finishQuery
//amoeba:alloctest fifo.Ring.Push fifo.Ring.Pop
func TestZeroAllocIaaSBacklog(t *testing.T) {
	s, p := newPlatform(7)
	done := 0
	p.DeployWithVMs(workload.Float(), 1, func(metrics.QueryRecord) { done++ })
	float := p.Bind("float")
	const depth = 100 // queries waiting behind the busy workers
	burst := func() {
		for i := 0; i < p.Slots("float")+depth; i++ {
			float.Invoke()
		}
		if n := p.QueueLength("float"); n != depth {
			t.Fatalf("backlog of %d queries, want %d", n, depth)
		}
		s.Run(s.Now() + 1000)
	}
	burst() // the backlog reaches its high-water mark
	if allocs := testing.AllocsPerRun(50, burst); allocs != 0 {
		t.Errorf("a backlog of %d queries allocates %.2f objects per fill and drain, want 0", depth, allocs)
	}
	if want := 52 * (p.Slots("float") + depth); done != want || p.QueueLength("float") != 0 {
		t.Fatalf("completed %d queries with %d waiting, want %d and none", done, p.QueueLength("float"), want)
	}
}

// TestZeroAllocQueryCycleObserved is the query cycle with the telemetry
// an observed run carries: a tracer, and a bus with a JSONL writer and
// a metrics sink. The platform lends one reused QueryComplete and the
// tracer one reused PhaseSpan per query, and the writer copies them
// into recycled batches, so the cycle still allocates nothing once
// every batch has grown.
//
//amoeba:alloctest iaas.Invoker.Invoke iaas.Platform.startQuery iaas.Platform.finishQuery
//amoeba:alloctest obs.Bus.Emit obs.JSONLWriter.Consume obs.MetricsSink.Consume obs.Tracer.End
func TestZeroAllocQueryCycleObserved(t *testing.T) {
	s, p := newPlatform(7)
	bus := obs.NewBus()
	w := obs.NewJSONLWriter(io.Discard)
	bus.Attach(w)
	bus.Attach(obs.NewMetricsSink(obs.NewRegistry()))
	p.SetBus(bus)
	p.SetTracer(obs.NewTracer(bus))
	done := 0
	p.DeployWithVMs(workload.Float(), 1, func(metrics.QueryRecord) { done++ })
	float := p.Bind("float")
	cycle := func() {
		float.Invoke()
		s.Run(s.Now() + 1)
	}
	const warm = 4096 // two events per query: every batch fills several times
	for i := 0; i < warm; i++ {
		cycle()
	}
	if done != warm {
		t.Fatalf("warm-up completed %d queries, want %d", done, warm)
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Errorf("observed Invoke→completion allocates %.2f objects per query, want 0", allocs)
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 2*(warm+1001) {
		t.Fatalf("wrote %d events, want a phase span and a completion for each of %d queries", w.Count(), warm+1001)
	}
}
