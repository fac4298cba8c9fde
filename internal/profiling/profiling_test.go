package profiling

import (
	"sync/atomic"
	"testing"

	"amoeba/internal/meters"
	"amoeba/internal/serverless"
	"amoeba/internal/workload"
)

func TestMeterCurveShape(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling sweep in -short mode")
	}
	cfg := serverless.DefaultConfig()
	c := MeterCurve(meters.CPUMeter(), cfg, []float64{0, 0.3, 0.6, 0.9})
	if err := c.Validate(); err != nil {
		t.Fatalf("profiled curve invalid: %v", err)
	}
	// Convex rise: latency at 0.9 pressure well above the solo latency
	// (h(0.9) ≈ 0.49 for a fully sensitive probe → ~1.4x end to end).
	lo, hi := c.Latencies[0], c.Latencies[len(c.Latencies)-1]
	if hi < lo*1.30 {
		t.Errorf("CPU meter barely reacts to pressure: %v -> %v", lo, hi)
	}
	// Solo latency is near the meter's exec + overheads.
	m := meters.CPUMeter()
	want := m.Profile.ExecTime + m.Profile.Overheads.Total()
	if lo < want*0.8 || lo > want*1.3 {
		t.Errorf("solo meter latency %v far from %v", lo, want)
	}
}

func TestMeterCurveIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling sweep in -short mode")
	}
	// The IO meter must not react to CPU pressure: profile the IO meter
	// while injecting on resource 0 (CPU) via a manual sweep.
	cfg := serverless.DefaultConfig()
	io := meters.IOMeter()
	base := measureCell(io.Profile, 0, 0, probeQPS, cfg, 1, false)
	loaded := measureCell(io.Profile, 0, 0.9, probeQPS, cfg, 2, false)
	if loaded > base*1.1 {
		t.Errorf("IO meter reacted to CPU pressure: %v -> %v", base, loaded)
	}
}

func TestBuildSurfaceMonotoneInPressure(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling sweep in -short mode")
	}
	cfg := serverless.DefaultConfig()
	prof := workload.Float()
	s := BuildSurface(prof, 0, cfg, []float64{0, 0.5, 1.0}, []float64{2, 10})
	if err := s.Validate(); err != nil {
		t.Fatalf("surface invalid: %v", err)
	}
	for j := range s.Loads {
		for i := 1; i < len(s.Pressures); i++ {
			if s.Lat[i][j] < s.Lat[i-1][j] {
				t.Errorf("surface decreasing in pressure at (%d,%d)", i, j)
			}
		}
	}
	// float is CPU sensitive: top of the CPU surface well above baseline.
	if s.Lat[2][0] < s.Lat[0][0]*1.3 {
		t.Errorf("CPU surface too flat for a CPU-bound service: %v vs %v", s.Lat[2][0], s.Lat[0][0])
	}
}

func TestBuildSetCompleteness(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling sweep in -short mode")
	}
	cfg := serverless.DefaultConfig()
	prof := workload.CloudStor()
	set := BuildSet(prof, cfg, []float64{0, 0.6, 1.0}, []float64{1, 6})
	if err := set.Validate(); err != nil {
		t.Fatalf("set invalid: %v", err)
	}
	// cloud_stor: network surface must react more than the CPU surface.
	cpuRise := set.Surfaces[0].Lat[2][0] / set.Surfaces[0].Lat[0][0]
	netRise := set.Surfaces[2].Lat[2][0] / set.Surfaces[2].Lat[0][0]
	if netRise <= cpuRise {
		t.Errorf("cloud_stor: net rise %v <= cpu rise %v", netRise, cpuRise)
	}
}

func TestParallelForCoversAllIndices(t *testing.T) {
	var mask [97]int32
	parallelFor(97, 8, func(i int) { atomic.AddInt32(&mask[i], 1) })
	for i, v := range mask {
		if v != 1 {
			t.Fatalf("index %d visited %d times", i, v)
		}
	}
	// Degenerate cases.
	count := int32(0)
	parallelFor(3, 1, func(int) { atomic.AddInt32(&count, 1) })
	if count != 3 {
		t.Errorf("serial fallback ran %d times", count)
	}
	parallelFor(0, 4, func(int) { t.Error("body called for n=0") })
}

func TestDefaultGrids(t *testing.T) {
	pg := DefaultPressureGrid()
	if pg[0] != 0 || pg[len(pg)-1] < 1.0 {
		t.Errorf("pressure grid %v must span [0, 1]", pg)
	}
	lg := DefaultLoadGrid(workload.Float())
	if len(lg) < 3 {
		t.Fatalf("load grid too small: %v", lg)
	}
	for i := 1; i < len(lg); i++ {
		if lg[i] <= lg[i-1] {
			t.Errorf("load grid not increasing: %v", lg)
		}
	}
	if lg[len(lg)-1] > workload.Float().PeakQPS {
		t.Errorf("load grid exceeds peak: %v", lg)
	}
}

func TestInjectionForPanicsOnBadIndex(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad meter index did not panic")
		}
	}()
	injectionFor(3, 0.5, serverless.DefaultConfig().Node.Capacity())
}
