// Package meters implements the contention meters of §IV-B: three
// delicately shaped probe functions — one per shared resource (CPU,
// disk-IO bandwidth, network bandwidth) — that the monitor runs on the
// serverless platform to quantify contention it cannot observe directly.
//
// Each meter is maximally sensitive to exactly one resource and exerts a
// known demand on it. Profiling (Fig. 8) records the meter's latency as
// the pressure on its resource rises; at runtime the monitor runs the
// meter at 1 QPS, observes its latency, and inverts the profiling curve to
// recover the current pressure from all co-located microservices.
package meters

import (
	"fmt"
	"sort"

	"amoeba/internal/contention"
	"amoeba/internal/resources"
	"amoeba/internal/units"
	"amoeba/internal/workload"
)

// Meter is one contention probe.
type Meter struct {
	Profile workload.Profile
	// Index is the position in the pressure/weight vectors (0 = CPU,
	// 1 = IO, 2 = Net), matching contention.Pressure.Get.
	Index int
}

// CPUMeter returns the CPU-and-memory contention meter: a short pure
// compute kernel pinned to one core.
func CPUMeter() Meter {
	return Meter{
		Index: 0,
		Profile: workload.Profile{
			Name:        "meter_cpu",
			ExecTime:    0.080,
			ExecCV:      0.01,
			QoSTarget:   10, // meters have no QoS of their own
			Demand:      resources.Vector{CPU: 1.0, MemMB: 64},
			Sensitivity: contention.Sensitivity{CPU: 1.0},
			PeakQPS:     1,
			Overheads:   workload.Overheads{Processing: 0.004, CodeLoadHot: 0.003, ResultPost: 0.003},
			VMCores:     1,
			VMMemMB:     1024,
		},
	}
}

// IOMeter returns the disk-bandwidth contention meter: a sequential
// read/write burst.
func IOMeter() Meter {
	return Meter{
		Index: 1,
		Profile: workload.Profile{
			Name:        "meter_io",
			ExecTime:    0.080,
			ExecCV:      0.01,
			QoSTarget:   10,
			Demand:      resources.Vector{CPU: 0.1, MemMB: 64, DiskMBs: 120},
			Sensitivity: contention.Sensitivity{IO: 1.0},
			PeakQPS:     1,
			Overheads:   workload.Overheads{Processing: 0.004, CodeLoadHot: 0.003, ResultPost: 0.003},
			VMCores:     1,
			VMMemMB:     1024,
		},
	}
}

// NetMeter returns the network-bandwidth contention meter: a fixed-size
// transfer through the NIC.
func NetMeter() Meter {
	return Meter{
		Index: 2,
		Profile: workload.Profile{
			Name:        "meter_net",
			ExecTime:    0.080,
			ExecCV:      0.01,
			QoSTarget:   10,
			Demand:      resources.Vector{CPU: 0.05, MemMB: 64, NetMbs: 600},
			Sensitivity: contention.Sensitivity{Net: 1.0},
			PeakQPS:     1,
			Overheads:   workload.Overheads{Processing: 0.004, CodeLoadHot: 0.003, ResultPost: 0.003},
			VMCores:     1,
			VMMemMB:     1024,
		},
	}
}

// All returns the three meters in index order.
func All() []Meter {
	return []Meter{CPUMeter(), IOMeter(), NetMeter()}
}

// Curve is a profiled latency-vs-pressure table for one meter (one panel
// of Fig. 8). Points must be strictly increasing in pressure; latency is
// non-decreasing because the contention curves are monotone.
type Curve struct {
	Meter     Meter
	Pressures []float64
	Latencies []float64
}

// Validate reports malformed curves.
func (c *Curve) Validate() error {
	if len(c.Pressures) != len(c.Latencies) {
		return fmt.Errorf("meters: curve length mismatch %d vs %d", len(c.Pressures), len(c.Latencies))
	}
	if len(c.Pressures) < 2 {
		return fmt.Errorf("meters: curve needs at least 2 points")
	}
	for i := 1; i < len(c.Pressures); i++ {
		if c.Pressures[i] <= c.Pressures[i-1] {
			return fmt.Errorf("meters: pressures not strictly increasing at %d", i)
		}
		if c.Latencies[i] < c.Latencies[i-1] {
			return fmt.Errorf("meters: latencies decreasing at %d (%v < %v)",
				i, c.Latencies[i], c.Latencies[i-1])
		}
	}
	return nil
}

// PressureFor inverts the curve: the pressure whose profiled latency
// matches the observed one, clamped to the profiled range. This is the
// monitor's Measurement step (§IV-B step 2).
func (c *Curve) PressureFor(latency units.Seconds) float64 {
	lat := latency.Raw()
	n := len(c.Latencies)
	if lat <= c.Latencies[0] {
		return c.Pressures[0]
	}
	if lat >= c.Latencies[n-1] {
		return c.Pressures[n-1]
	}
	// Latencies are non-decreasing: binary search the segment.
	i := sort.SearchFloat64s(c.Latencies, lat)
	if i == 0 {
		return c.Pressures[0]
	}
	y0, y1 := c.Latencies[i-1], c.Latencies[i]
	x0, x1 := c.Pressures[i-1], c.Pressures[i]
	if y1 == y0 {
		return x0
	}
	f := (lat - y0) / (y1 - y0)
	return x0 + f*(x1-x0)
}
