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
			for i := 0; i <= depth; i++ { // one runs, depth wait
				p.Invoke("dd")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Invoke("dd")
				s.Run(sim.Time(math.Inf(1)))
			}
			b.StopTimer()
			if got := p.QueueLength(); got != depth {
				b.Fatalf("backlog depth drifted to %d, want %d", got, depth)
			}
		})
	}
}
