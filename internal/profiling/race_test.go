package profiling

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"amoeba/internal/serverless"
	"amoeba/internal/workload"
)

// TestParallelForWorkerCounts checks the worker pool dispatches every
// index exactly once whatever the worker count; under -race it also
// proves the pool itself introduces no shared-state races.
func TestParallelForWorkerCounts(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 100
		var hits [n]int32
		var calls int32
		parallelFor(n, workers, func(i int) {
			atomic.AddInt32(&hits[i], 1)
			atomic.AddInt32(&calls, 1)
		})
		if calls != n {
			t.Fatalf("workers=%d: %d calls, want %d", workers, calls, n)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
}

// TestBuildSurfaceWorkerCountIndependence profiles the same surface with
// a serial sweep and with a wide worker pool (GOMAXPROCS 1 and 8). Every
// grid cell derives its seed from the cell index alone, so the two grids
// must be bit-identical: a difference means a cell read state owned by
// another cell, i.e. the fan-out is not actually embarrassingly parallel.
func TestBuildSurfaceWorkerCountIndependence(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling sweep in -short mode")
	}
	cfg := serverless.DefaultConfig()
	prof := workload.Float()
	pressures := []float64{0, 0.4, 0.8}
	loads := []float64{2, 6}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	a := BuildSurface(prof, 0, cfg, pressures, loads)
	runtime.GOMAXPROCS(8)
	b := BuildSurface(prof, 0, cfg, pressures, loads)
	if !reflect.DeepEqual(a.Lat, b.Lat) {
		t.Errorf("surface depends on worker count:\nserial: %v\nwide:   %v", a.Lat, b.Lat)
	}
}

// TestBuildSetConcurrentSurfaces runs the three-surface fan-out of
// BuildSet, whose goroutines share the profile and config by value and
// the set by disjoint index. Under -race this is the regression test for
// that sharing pattern.
func TestBuildSetConcurrentSurfaces(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling sweep in -short mode")
	}
	cfg := serverless.DefaultConfig()
	set := BuildSet(workload.Float(), cfg, []float64{0, 0.5}, []float64{2, 4})
	if err := set.Validate(); err != nil {
		t.Fatalf("concurrently built set invalid: %v", err)
	}
}
