package iaas

import (
	"testing"

	"amoeba/internal/workload"
)

// BenchmarkQueryCycle times one query, Invoke to completion, on a service
// with a free worker. It reports kernel events fired per query beside the
// allocations.
func BenchmarkQueryCycle(b *testing.B) {
	s, p := newPlatform(1)
	p.DeployWithVMs(workload.Float(), 1, nil)
	float := p.Bind("float")
	fired := s.Events()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		float.Invoke()
		s.Run(s.Now() + 1)
	}
	b.StopTimer()
	if p.mustSvc("float").inflight != 0 {
		b.Fatalf("%d queries still in flight", p.mustSvc("float").inflight)
	}
	b.ReportMetric(float64(s.Events()-fired)/float64(b.N), "events/op")
}
