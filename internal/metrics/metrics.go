// Package metrics defines the observation types every platform emits and
// the collectors the experiments aggregate them with: per-query latency
// records with a full breakdown (Fig. 4), QoS accounting against the
// 95%-ile target (Fig. 10, Fig. 16), deploy-mode switch timelines
// (Fig. 12), and resource-usage timelines (Fig. 13).
package metrics

import (
	"fmt"

	"amoeba/internal/resources"
	"amoeba/internal/stats"
)

// Backend identifies which deployment served a query. The set is
// closed: switches over Backend must name both members (String keeps an
// explicit out-of-range rendering for values decoded from external
// input).
//
//amoeba:enum
type Backend int

const (
	BackendIaaS Backend = iota
	BackendServerless
)

func (b Backend) String() string {
	switch b {
	case BackendIaaS:
		return "iaas"
	case BackendServerless:
		return "serverless"
	}
	return fmt.Sprintf("Backend(%d)", int(b))
}

// Breakdown decomposes one query's end-to-end latency, in seconds.
// IaaS-served queries only use Queue and Exec (plus a small RPC cost in
// Processing).
type Breakdown struct {
	Queue      float64 // waiting for a free container / worker slot
	ColdStart  float64 // container cold start (zero on the warm path)
	Processing float64 // auth, authorization, scheduling
	CodeLoad   float64 // function code loading
	Exec       float64 // function body execution (includes contention slowdown)
	Post       float64 // result posting
}

// Total returns the end-to-end latency. The receiver is a pointer so
// the hot path reads a record's breakdown in place rather than copying
// it.
func (b *Breakdown) Total() float64 {
	return b.Queue + b.ColdStart + b.Processing + b.CodeLoad + b.Exec + b.Post
}

// QueryRecord is one completed query.
type QueryRecord struct {
	Backend   Backend
	Breakdown Breakdown
}

// Latency returns the query's end-to-end latency.
func (r *QueryRecord) Latency() float64 { return r.Breakdown.Total() }

// Collector accumulates per-service latency statistics and QoS accounting.
type Collector struct {
	Service   string
	QoSTarget float64

	latencies  *stats.Sample
	violations int
	byBackend  [2]int    // indexed by Backend
	breakdown  Breakdown // summed, for Fig. 4 means
}

// NewCollector returns a collector for one service with the given QoS
// target (seconds). It panics if the target is non-positive.
func NewCollector(service string, qosTarget float64) *Collector {
	if qosTarget <= 0 {
		panic(fmt.Sprintf("metrics: non-positive QoS target %v", qosTarget))
	}
	return &Collector{
		Service:   service,
		QoSTarget: qosTarget,
		latencies: stats.NewSample(4096),
	}
}

// Observe records one completed query.
func (c *Collector) Observe(r QueryRecord) {
	l := r.Latency()
	c.latencies.Add(l)
	if l > c.QoSTarget {
		c.violations++
	}
	if inRange(r.Backend) {
		c.byBackend[r.Backend]++
	}
	b := &r.Breakdown
	c.breakdown.Queue += b.Queue
	c.breakdown.ColdStart += b.ColdStart
	c.breakdown.Processing += b.Processing
	c.breakdown.CodeLoad += b.CodeLoad
	c.breakdown.Exec += b.Exec
	c.breakdown.Post += b.Post
}

// Count returns the number of observed queries.
func (c *Collector) Count() int { return c.latencies.Len() }

// P95 returns the exact 95%-ile latency — the paper's QoS metric. Exact
// quantiles keep the full sample; figures (Fig. 10 CDFs) depend on that.
func (c *Collector) P95() float64 { return c.latencies.P95() }

// QoSMet reports whether the 95%-ile latency is within the target.
func (c *Collector) QoSMet() bool { return c.P95() <= c.QoSTarget }

// ViolationFraction returns the fraction of individual queries over the
// target (Fig. 16's metric).
func (c *Collector) ViolationFraction() float64 {
	if c.Count() == 0 {
		return 0
	}
	return float64(c.violations) / float64(c.Count())
}

// Latencies exposes the raw latency sample.
func (c *Collector) Latencies() *stats.Sample { return c.latencies }

// NormalizedCDF returns the CDF of latency/QoSTarget at n points
// (Fig. 10).
func (c *Collector) NormalizedCDF(n int) (xs, fs []float64) {
	return c.latencies.ScaledCDF(n, c.QoSTarget)
}

// BackendCount returns how many queries the given backend served; 0 for
// a value outside the closed set.
func (c *Collector) BackendCount(b Backend) int {
	if !inRange(b) {
		return 0
	}
	return c.byBackend[b]
}

// inRange reports whether b names one of the two backends.
func inRange(b Backend) bool { return b == BackendIaaS || b == BackendServerless }

// MeanBreakdown returns the average per-query latency anatomy (Fig. 4).
func (c *Collector) MeanBreakdown() Breakdown {
	n := float64(c.Count())
	if n == 0 {
		return Breakdown{}
	}
	b := c.breakdown
	return Breakdown{
		Queue: b.Queue / n, ColdStart: b.ColdStart / n, Processing: b.Processing / n,
		CodeLoad: b.CodeLoad / n, Exec: b.Exec / n, Post: b.Post / n,
	}
}

// SwitchEvent is one deploy-mode transition (Fig. 12's stars).
type SwitchEvent struct {
	At      float64
	To      Backend
	LoadQPS float64 // the load estimate at the moment of the decision
}

// Timeline records mode transitions and periodic usage/load snapshots for
// one service.
type Timeline struct {
	Switches  []SwitchEvent
	Snapshots []Snapshot
}

// Snapshot is one periodic sample of the service's state.
type Snapshot struct {
	At      float64
	Mode    Backend
	LoadQPS float64
	Alloc   resources.Vector // resources allocated to the service right now
}

// RecordSwitch appends a mode transition.
func (t *Timeline) RecordSwitch(at float64, to Backend, load float64) {
	t.Switches = append(t.Switches, SwitchEvent{At: at, To: to, LoadQPS: load})
}

// RecordSnapshot appends a periodic sample.
func (t *Timeline) RecordSnapshot(s Snapshot) {
	t.Snapshots = append(t.Snapshots, s)
}

// SwitchCount returns the number of transitions to the given backend.
func (t *Timeline) SwitchCount(to Backend) int {
	n := 0
	for _, s := range t.Switches {
		if s.To == to {
			n++
		}
	}
	return n
}
