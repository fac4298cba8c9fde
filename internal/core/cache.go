package core

import (
	"sync"

	"amoeba/internal/meters"
	"amoeba/internal/profiling"
	"amoeba/internal/serverless"
	"amoeba/internal/surfaces"
	"amoeba/internal/workload"
)

// Profiling (meter curves, latency surfaces) is an offline step the paper
// performs once per microservice ("for a long-running microservice, it is
// acceptable to profile it", §IV-B). Experiments re-run many scenarios
// over the same profiles, so the results are memoised process-wide, keyed
// by the whole profile and platform configuration they were measured
// under. The profile's name is part of the key: profiling seeds a
// surface's cells from it.

// surfaceKey identifies one profiled surface set.
type surfaceKey struct {
	prof workload.Profile
	cfg  serverless.Config
}

var (
	cacheMu      sync.Mutex
	curveCache   = map[serverless.Config][3]*meters.Curve{}
	surfaceCache = map[surfaceKey]*surfaces.Set{}
)

// MeterCurves returns the profiled Fig. 8 curves for the three contention
// meters under the given platform configuration, building them on first
// use.
func MeterCurves(cfg serverless.Config) [3]*meters.Curve {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	c, ok := curveCache[cfg]
	if !ok {
		c = profiling.AllMeterCurves(cfg, profiling.DefaultPressureGrid())
		curveCache[cfg] = c
	}
	return c
}

// SurfaceSet returns the profiled Fig. 9 latency surfaces for a service
// under the given platform configuration, building them on first use.
func SurfaceSet(prof workload.Profile, cfg serverless.Config) *surfaces.Set {
	key := surfaceKey{prof, cfg}
	cacheMu.Lock()
	defer cacheMu.Unlock()
	set, ok := surfaceCache[key]
	if !ok {
		set = profiling.BuildSet(prof, cfg, profiling.DefaultPressureGrid(), profiling.DefaultLoadGrid(prof))
		surfaceCache[key] = set
	}
	return set
}

// ResetProfileCache clears the memoised profiling results (tests use it to
// exercise rebuilds).
func ResetProfileCache() {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	curveCache = map[serverless.Config][3]*meters.Curve{}
	surfaceCache = map[surfaceKey]*surfaces.Set{}
}
