// Package workload defines the microservice benchmarks of the evaluation:
// the five FunctionBench workloads of Table III (float, matmul, linpack,
// dd, cloud_stor), their resource demands, contention sensitivities, QoS
// targets, and peak loads, plus the serverless per-query overhead anatomy
// of Fig. 4.
package workload

import (
	"fmt"
	"math"

	"amoeba/internal/contention"
	"amoeba/internal/resources"
)

// Overheads is the serverless-path latency anatomy of a single query
// (Fig. 4): everything a FaaS platform adds around the function body.
// All values in seconds.
type Overheads struct {
	Processing  float64 // authentication, authorization, scheduling
	CodeLoadHot float64 // loading code into an already-warm container
	ResultPost  float64 // posting the result back through the gateway
}

// Total returns the warm-path overhead sum — the α of Eq. 6.
func (o Overheads) Total() float64 {
	return o.Processing + o.CodeLoadHot + o.ResultPost
}

// Profile fully describes one microservice benchmark.
type Profile struct {
	Name string

	// ExecTime is the solo-run function body duration L₀ in seconds on an
	// uncontended platform (service time, excluding platform overheads).
	ExecTime float64
	// ExecCV is the coefficient of variation of the body duration; the
	// simulator draws per-query times from a log-normal with this CV.
	ExecCV float64

	// QoSTarget is the end-to-end latency bound in seconds; the paper's
	// QoS metric is the 95%-ile latency staying under it.
	QoSTarget float64

	// Demand is the resource demand exerted while one query executes:
	// CPU in cores, Memory in MB (container working set), DiskIO in MB/s,
	// Network in Mb/s.
	Demand resources.Vector

	// Sensitivity is the Table III susceptibility to contention.
	Sensitivity contention.Sensitivity
	// MemSensitivity is Table III's memory column, kept for reporting.
	MemSensitivity float64

	// PeakQPS is the diurnal peak arrival rate the maintainer provisions
	// the IaaS deployment for.
	PeakQPS float64

	// Overheads is the serverless-path anatomy (Fig. 4).
	Overheads Overheads

	// VMCores and VMMemMB size one IaaS VM for this service; the platform
	// provisions ceil(peak demand / VM size) such VMs.
	VMCores int
	VMMemMB float64
}

// Validate reports profile configuration errors.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("workload: profile with empty name")
	}
	if p.ExecTime <= 0 {
		return fmt.Errorf("workload: %s has non-positive exec time %v", p.Name, p.ExecTime)
	}
	if p.ExecCV < 0 || p.ExecCV > 2 {
		return fmt.Errorf("workload: %s has exec CV %v out of [0,2]", p.Name, p.ExecCV)
	}
	if p.QoSTarget <= p.ExecTime {
		return fmt.Errorf("workload: %s QoS target %v not above exec time %v",
			p.Name, p.QoSTarget, p.ExecTime)
	}
	if !p.Demand.NonNegative() || p.Demand.CPU == 0 {
		return fmt.Errorf("workload: %s has invalid demand %v", p.Name, p.Demand)
	}
	if err := p.Sensitivity.Validate(); err != nil {
		return fmt.Errorf("workload: %s: %w", p.Name, err)
	}
	if !(p.PeakQPS > 0) || math.IsInf(p.PeakQPS, 1) {
		return fmt.Errorf("workload: %s has peak load %v, not positive and finite", p.Name, p.PeakQPS)
	}
	if p.VMCores <= 0 || p.VMMemMB <= 0 {
		return fmt.Errorf("workload: %s has invalid VM shape", p.Name)
	}
	return nil
}

// ServiceDemandSeconds returns the CPU time one query consumes
// (cores × duration), used by provisioning math.
func (p Profile) ServiceDemandSeconds() float64 {
	return p.Demand.CPU * p.ExecTime
}

// ContainerMemMB is the serverless container size of Table II.
const ContainerMemMB = 256

// defaultOverheads builds the Fig. 4 anatomy scaled to a benchmark: the
// paper measures the extra overheads at 10–45 % of end-to-end latency.
func defaultOverheads(processing, codeLoad, post float64) Overheads {
	return Overheads{Processing: processing, CodeLoadHot: codeLoad, ResultPost: post}
}

// Float returns the float_operation benchmark: short pure-CPU bursts with
// a tight QoS target. The tight target is what keeps its IaaS utilisation
// low even at peak (Fig. 2's discussion).
func Float() Profile {
	return Profile{
		Name:           "float",
		ExecTime:       0.100,
		ExecCV:         0.10,
		QoSTarget:      0.180,
		Demand:         resources.Vector{CPU: 1.0, MemMB: 150, DiskMBs: 0, NetMbs: 10},
		Sensitivity:    contention.Sensitivity{CPU: 0.90, IO: 0.0, Net: 0.05},
		MemSensitivity: 0.9,
		PeakQPS:        55,
		Overheads:      defaultOverheads(0.008, 0.006, 0.006),
		VMCores:        4,
		VMMemMB:        8 * 1024,
	}
}

// Matmul returns the matrix-multiplication benchmark: longer CPU-bound
// queries with a looser relative target.
func Matmul() Profile {
	return Profile{
		Name:           "matmul",
		ExecTime:       0.250,
		ExecCV:         0.12,
		QoSTarget:      0.600,
		Demand:         resources.Vector{CPU: 1.0, MemMB: 220, DiskMBs: 0, NetMbs: 15},
		Sensitivity:    contention.Sensitivity{CPU: 0.85, IO: 0.0, Net: 0.05},
		MemSensitivity: 0.9,
		PeakQPS:        60,
		Overheads:      defaultOverheads(0.012, 0.010, 0.008),
		VMCores:        4,
		VMMemMB:        8 * 1024,
	}
}

// Linpack returns the linpack benchmark: the heaviest CPU-bound workload.
func Linpack() Profile {
	return Profile{
		Name:           "linpack",
		ExecTime:       0.300,
		ExecCV:         0.12,
		QoSTarget:      0.750,
		Demand:         resources.Vector{CPU: 1.0, MemMB: 230, DiskMBs: 0, NetMbs: 10},
		Sensitivity:    contention.Sensitivity{CPU: 0.85, IO: 0.0, Net: 0.05},
		MemSensitivity: 0.85,
		PeakQPS:        24,
		Overheads:      defaultOverheads(0.013, 0.012, 0.009),
		VMCores:        4,
		VMMemMB:        8 * 1024,
	}
}

// DD returns the dd benchmark: disk-IO-bound file copies with a medium
// CPU component.
func DD() Profile {
	return Profile{
		Name:           "dd",
		ExecTime:       0.150,
		ExecCV:         0.20,
		QoSTarget:      0.400,
		Demand:         resources.Vector{CPU: 0.45, MemMB: 200, DiskMBs: 180, NetMbs: 20},
		Sensitivity:    contention.Sensitivity{CPU: 0.40, IO: 0.90, Net: 0.05},
		MemSensitivity: 0.5,
		PeakQPS:        80,
		Overheads:      defaultOverheads(0.010, 0.008, 0.010),
		VMCores:        4,
		VMMemMB:        8 * 1024,
	}
}

// CloudStor returns the cloud_stor benchmark: object up/downloads bound by
// network bandwidth with a small CPU footprint. Its network bottleneck is
// the paper's example of a service whose IaaS CPU utilisation stays low
// even at peak (Fig. 2).
func CloudStor() Profile {
	return Profile{
		Name:           "cloud_stor",
		ExecTime:       0.220,
		ExecCV:         0.25,
		QoSTarget:      0.420,
		Demand:         resources.Vector{CPU: 0.25, MemMB: 180, DiskMBs: 40, NetMbs: 900},
		Sensitivity:    contention.Sensitivity{CPU: 0.15, IO: 0.50, Net: 0.90},
		MemSensitivity: 0.2,
		PeakQPS:        55,
		Overheads:      defaultOverheads(0.015, 0.010, 0.020),
		VMCores:        4,
		VMMemMB:        8 * 1024,
	}
}

// All returns the five benchmarks in the paper's Table III order.
func All() []Profile {
	return []Profile{Float(), Matmul(), Linpack(), DD(), CloudStor()}
}

// ByName returns the named benchmark, or an error listing valid names.
func ByName(name string) (Profile, error) {
	for _, p := range All() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown benchmark %q (valid: float, matmul, linpack, dd, cloud_stor)", name)
}
