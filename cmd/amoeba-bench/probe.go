package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// Host times are reported in reference-host seconds. The baseline host
// shares its cores with other tenants, whose load slows every run by
// 10–70% in bursts lasting seconds to minutes: raw wall times of one
// workload spread 13–30% between runs, more than any regression bound
// can absorb. So each timed section is bracketed by a probe, a fixed
// amount of work independent of the program under test, and its wall
// time is scaled by refProbe / (the probe's duration around it). A
// change to the program moves the scaled time as it moves the raw time;
// a change in host speed moves the probe too and cancels.

// refProbe is probe(1)'s duration on the baseline host at rest (2 vCPU
// Intel Xeon, go1.24.0): its 10th percentile over 400 probes was 15.7 ms
// and its median 16.8 ms.
const refProbe = 16 * time.Millisecond

var probeSink float64

// probe runs the fixed work on each of workers goroutines at once and
// returns how long the slowest took, so that a sharded run is scaled by
// the speed of every core it used.
func probe(workers int) time.Duration {
	t0 := time.Now()
	if workers <= 1 {
		probeSink = probeWork()
		return time.Since(t0)
	}
	sums := make([]float64, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[i] = probeWork()
		}()
	}
	wg.Wait()
	probeSink = sums[0]
	return time.Since(t0)
}

// probeWork is the fixed work, run four times. It mixes what the
// simulator spends its time on: integer arithmetic, map updates, a
// branchy sort and floating-point math.
func probeWork() float64 {
	s := 0.0
	for range 4 {
		x := uint64(88172645463325252)
		xs := make([]float64, 1<<15)
		m := make(map[uint64]uint64, 1<<12)
		for i := range xs {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			xs[i] = float64(x >> 11)
			m[x&4095] += x
		}
		sort.Float64s(xs)
		for _, v := range xs[:8192] {
			s += math.Sin(v) * math.Exp(-v*1e-18)
		}
		s += float64(len(m))
	}
	return s
}

// refSeconds scales a wall time measured between two probes to
// reference-host seconds.
func refSeconds(wall, before, after time.Duration) float64 {
	return wall.Seconds() * refProbe.Seconds() / ((before + after).Seconds() / 2)
}
