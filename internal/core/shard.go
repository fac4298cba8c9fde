// Sharded execution (DESIGN.md §15): RunSharded partitions a scenario's
// services across K lockstep worker shards, each advancing its own set
// of isolated simulation cells on a private event heap, with cross-cell
// coupling confined to an epoch barrier every monitor sample period T.
//
// The cell is the isolation unit, not the shard: every managed service,
// every background tenant, and the contention-monitor daemon runs in
// its own cell with a private sim.Simulator (and RNG lineage), private
// serverless pool and IaaS platform, and a private telemetry bus whose
// events carry trace/span IDs from a per-cell namespace. Because a
// cell's behaviour depends only on its own seed and the pressure pushed
// at barriers — never on which worker ran it or which cells ran beside
// it — the merged output stream and the Result tables are identical for
// every K, including K=1.
//
// At each barrier the runtime sums the per-cell serverless demand in
// canonical namespace order, converts it into one pressure sample via
// the shared contention model (exactly the granularity the monitor
// observes, Eq. 8), freezes that pressure into every cell's pool for
// the next epoch, and relays the daemon monitor's estimate to each
// service cell's monitor replica. Telemetry buffers are drained at the
// same boundary and merged in (timestamp, namespace, sequence) order.
package core

import (
	"fmt"
	"sort"
	"sync"

	"amoeba/internal/contention"
	"amoeba/internal/monitor"
	"amoeba/internal/obs"
	"amoeba/internal/resources"
	"amoeba/internal/serverless"
	"amoeba/internal/sim"
)

const (
	// shardJobCap bounds the epoch job and completion queues. One job per
	// worker is in flight per epoch, and MaxShards caps the worker count
	// at the queue capacity, so the barrier loop never blocks mid-send.
	shardJobCap = 64
	// MaxShards is the largest accepted worker count; requests beyond it
	// (or beyond the cell count) are clamped.
	MaxShards = shardJobCap
)

// shardJob asks a worker to advance one group of cells to the epoch
// horizon.
type shardJob struct {
	cells   []*cell
	horizon sim.Time
}

// mergedEvent is one buffered telemetry event tagged with its merge key.
type mergedEvent struct {
	ev  obs.Event
	ns  int
	seq int
}

// shardRun is the barrier-loop state of one sharded execution.
type shardRun struct {
	cells  []*cell
	daemon *cell // the ns-0 monitor cell; nil for non-Amoeba variants
	model  *contention.Model
	merge  []mergedEvent // scratch, reused across epochs
}

// shardSeed derives a cell's simulator seed from the scenario seed and
// the cell namespace (splitmix64 finalizer). It depends only on (seed,
// ns), never on the shard count, so cell RNG lineages are identical for
// every K.
func shardSeed(seed uint64, ns int) uint64 {
	x := seed + 0x9e3779b97f4a7c15*uint64(ns+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// barrier performs the epoch synchronization: aggregate the per-cell
// serverless demand in canonical namespace order, freeze the resulting
// pressure into every cell's pool for the next epoch, and relay the
// daemon monitor's latest estimate to each service cell's replica. It
// runs once per simulated sample period on the quiesced cell set — the
// shard hot loop the CI zero-alloc gate covers.
//
//amoeba:noalloc
func (r *shardRun) barrier() {
	var total resources.Vector
	for _, c := range r.cells {
		total = total.Add(c.pool.DemandNow())
	}
	pr := r.model.Pressure(total)
	for _, c := range r.cells {
		c.pool.SetSharedPressure(pr)
	}
	if r.daemon != nil {
		p := r.daemon.mon.Pressure()
		span := r.daemon.mon.LastMeterSpan()
		for _, c := range r.cells {
			if c.mon != nil && c != r.daemon {
				c.mon.PushSample(p, span)
			}
		}
	}
}

// flush drains every cell's telemetry buffer onto the scenario bus in
// canonical (timestamp, namespace, sequence) order. Within a cell the
// buffer is already time-ordered (the sim clock is non-decreasing), and
// successive epochs emit at strictly increasing times, so the merged
// stream is globally ordered — and identical for every shard count,
// because both the events and the key depend only on the cell, not on
// the worker that ran it.
func (r *shardRun) flush(bus *obs.Bus) {
	if bus == nil {
		return
	}
	r.merge = r.merge[:0]
	for _, c := range r.cells {
		for seq, ev := range c.buf.Events() {
			r.merge = append(r.merge, mergedEvent{ev: ev, ns: c.ns, seq: seq})
		}
	}
	sort.Slice(r.merge, func(i, j int) bool {
		a, b := r.merge[i], r.merge[j]
		if at, bt := a.ev.EventTime(), b.ev.EventTime(); at != bt {
			return at < bt
		}
		if a.ns != b.ns {
			return a.ns < b.ns
		}
		return a.seq < b.seq
	})
	for _, m := range r.merge {
		bus.Emit(m.ev)
	}
	for _, c := range r.cells {
		c.buf.Reset()
	}
}

// shardWorker drains epoch jobs, advancing each job's cells to the
// epoch horizon in turn. It is a shard: every mutable structure it
// touches is owned by the cells handed to it through the job, workers
// share nothing, and its only channels are the bounded queues the
// barrier loop passed in.
//
//amoeba:shard
//amoeba:bounded jobs done
func shardWorker(jobs <-chan shardJob, done chan<- struct{}) {
	for j := range jobs {
		for _, c := range j.cells {
			c.sim.Run(j.horizon)
		}
		done <- struct{}{}
	}
}

// RunSharded executes the scenario to completion on a K-worker sharded
// kernel. Output — Result tables and the merged telemetry stream on
// sc.Bus — is identical for every shards value, including shards=1;
// shards is clamped to [1, min(cells, MaxShards)]. It panics if the
// scenario fails validation or shards is not positive.
//
// Semantics differ from Run in one declared way: cells couple through
// the shared pool pressure only at epoch boundaries (period T, the
// monitor sample period), and each cell owns a private pool and IaaS
// platform, so per-run byte streams are not comparable between Run and
// RunSharded — only across shard counts. As with Run, sc.Bus has been
// flushed when RunSharded returns or panics.
func RunSharded(sc Scenario, shards int) *Result {
	if err := sc.Validate(); err != nil {
		panic(err)
	}
	if shards < 1 {
		panic(fmt.Sprintf("core: RunSharded needs a positive shard count, got %d", shards))
	}
	defer sc.Bus.Flush() // a writer keeps its error for its own Err

	monCfg := monitorConfig(sc.Variant)
	epoch := monCfg.SamplePeriod.Raw() // Eq. 8's T is the natural barrier period
	// Namespace layout: 0 is the monitor daemon (reserved even when the
	// variant runs none), 1..S the managed services in scenario order,
	// S+1..S+B the background tenants.
	stride := 1 + len(sc.Services) + len(sc.Background)
	r := &shardRun{model: contention.NewModel(serverless.DefaultConfig().Node.Capacity())}

	// open starts cell ns on its own seed. An observed cell gets a
	// private bus, an epoch buffer and a tracer in its own namespace.
	open := func(ns int) *cell {
		c := newCell(&sc, shardSeed(sc.Seed, ns))
		c.ns = ns
		c.pool.SetSharedPressure(contention.Pressure{})
		if sc.Bus != nil {
			bus := obs.NewBus()
			c.buf = obs.NewBuffer()
			bus.Attach(c.buf)
			c.attach(bus, obs.NewTracerNS(bus, ns, stride))
		}
		r.cells = append(r.cells, c)
		return c
	}
	if sc.Variant.hybrid() {
		r.daemon = open(0)
		r.daemon.startMonitor()
	}
	for i, svc := range sc.Services {
		c := open(1 + i)
		c.addIaaS()
		if sc.Variant.hybrid() {
			c.mon = monitor.NewReplica(c.sim, monCfg)
		}
		c.addService(svc)
	}
	for i, bg := range sc.Background {
		open(1 + len(sc.Services) + i).addTenant(bg)
	}

	if shards > len(r.cells) {
		shards = len(r.cells)
	}
	if shards > MaxShards {
		shards = MaxShards
	}
	// Round-robin the cells into one group per worker. The grouping
	// balances load but cannot influence output: cells are isolated, so
	// any assignment yields the same per-cell trajectories.
	groups := make([][]*cell, shards)
	for i, c := range r.cells {
		groups[i%shards] = append(groups[i%shards], c)
	}

	jobs := make(chan shardJob, shardJobCap)
	done := make(chan struct{}, shardJobCap)
	var wg sync.WaitGroup
	for w := 0; w < shards; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			shardWorker(jobs, done)
		}()
	}
	// Deferred, so that a sink panicking in flush leaves no idle worker
	// behind either.
	defer func() {
		close(jobs)
		wg.Wait()
	}()

	// The barrier loop: advance every cell to the next epoch horizon,
	// then synchronize. The done-channel receives are the happens-before
	// edges that quiesce the cells before the barrier touches them; the
	// next round of job sends publishes the barrier's writes back.
	end := sim.Time(sc.Duration.Raw())
	for now := sim.Time(0); now < end; {
		next := now + sim.Time(epoch)
		if next > end {
			next = end
		}
		for _, g := range groups {
			jobs <- shardJob{cells: g, horizon: next}
		}
		for range groups {
			<-done
		}
		r.barrier()
		r.flush(sc.Bus)
		now = next
	}

	res := newResult(sc)
	for _, c := range r.cells {
		c.harvest(res)
	}
	return res
}
