package serverless

import (
	"fmt"
	"math"
	"testing"

	"amoeba/internal/metrics"
	"amoeba/internal/sim"
	"amoeba/internal/workload"
)

// BenchmarkInvokeBacklog times one arrival plus one completion against a
// standing backlog of the given depth: dd is capped at one container, so
// the arrival queues behind the backlog and the completion places the
// oldest waiting activation, keeping the depth constant. The per-function
// queues make both pumps touch only the queue heads, so ns/op must stay
// flat as the depth grows.
func BenchmarkInvokeBacklog(b *testing.B) {
	for _, depth := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
			s := sim.New(1)
			p := New(s, DefaultConfig())
			p.Register(workload.DD(), func(metrics.QueryRecord) { s.Halt() }, WithNMax(1))
			dd := p.Bind("dd")
			for i := 0; i <= depth; i++ { // one runs, depth wait
				dd.Invoke()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dd.Invoke()
				s.Run(sim.Time(math.Inf(1)))
			}
			b.StopTimer()
			if got := p.queued; got != depth {
				b.Fatalf("backlog depth drifted to %d, want %d", got, depth)
			}
		})
	}
}

// BenchmarkWarmReuse times a burst of four warm queries, Invoke to
// finish, on a pool of four warm containers. Every burst reuses every
// container, so none expires; only the reuse of the oldest touches the
// function's reclaim deadline. It reports kernel events fired and
// cancelled per burst beside the allocations.
func BenchmarkWarmReuse(b *testing.B) {
	const width = 4
	s := sim.New(1)
	p := New(s, DefaultConfig())
	p.Register(workload.Float(), nil)
	p.Prewarm("float", width, nil)
	s.Run(10)
	float := p.Bind("float")
	fired, cancelled := s.Events(), s.Cancelled()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < width; j++ {
			float.Invoke()
		}
		s.Run(s.Now() + 1)
	}
	b.StopTimer()
	if f := p.fns["float"]; p.nextID != width || f.inflight != 0 {
		b.Fatalf("%d containers started, %d of %d warm queries unfinished", p.nextID, f.inflight, width*b.N)
	}
	b.ReportMetric(float64(s.Events()-fired)/float64(b.N), "events/op")
	b.ReportMetric(float64(s.Cancelled()-cancelled)/float64(b.N), "cancels/op")
}
