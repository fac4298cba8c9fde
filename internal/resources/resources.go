// Package resources defines the multi-dimensional resource algebra shared
// by every platform model: CPU cores, memory, disk-IO bandwidth, and
// network bandwidth — the four shared resources the paper's contention
// analysis covers (§II-D, Fig. 5).
package resources

import (
	"fmt"
	"math"
)

// Kind identifies one shared-resource dimension.
type Kind int

const (
	CPU     Kind = iota // cores
	Memory              // MB resident
	DiskIO              // MB/s of disk bandwidth
	Network             // Mb/s of NIC bandwidth
	NumKinds
)

var kindNames = [NumKinds]string{"cpu", "memory", "disk_io", "network"}

func (k Kind) String() string {
	if k < 0 || k >= NumKinds {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Kinds lists all resource dimensions in canonical order.
func Kinds() []Kind { return []Kind{CPU, Memory, DiskIO, Network} }

// Vector is a demand or capacity across all resource dimensions. Units:
// CPU in cores, Memory in MB, DiskIO in MB/s, Network in Mb/s.
type Vector struct {
	CPU     float64
	MemMB   float64
	DiskMBs float64
	NetMbs  float64
}

// Get returns the component for kind k. It panics on an invalid kind.
func (v Vector) Get(k Kind) float64 {
	switch k {
	case CPU:
		return v.CPU
	case Memory:
		return v.MemMB
	case DiskIO:
		return v.DiskMBs
	case Network:
		return v.NetMbs
	}
	panic(fmt.Sprintf("resources: invalid kind %d", int(k)))
}

// Set returns a copy of v with the component for kind k replaced.
// It panics on an invalid kind.
func (v Vector) Set(k Kind, val float64) Vector {
	switch k {
	case CPU:
		v.CPU = val
	case Memory:
		v.MemMB = val
	case DiskIO:
		v.DiskMBs = val
	case Network:
		v.NetMbs = val
	default:
		panic(fmt.Sprintf("resources: invalid kind %d", int(k)))
	}
	return v
}

// Add returns v + o component-wise.
func (v Vector) Add(o Vector) Vector {
	return Vector{v.CPU + o.CPU, v.MemMB + o.MemMB, v.DiskMBs + o.DiskMBs, v.NetMbs + o.NetMbs}
}

// Sub returns v - o component-wise.
func (v Vector) Sub(o Vector) Vector {
	return Vector{v.CPU - o.CPU, v.MemMB - o.MemMB, v.DiskMBs - o.DiskMBs, v.NetMbs - o.NetMbs}
}

// Scale returns v * f component-wise.
func (v Vector) Scale(f float64) Vector {
	return Vector{v.CPU * f, v.MemMB * f, v.DiskMBs * f, v.NetMbs * f}
}

// Max returns the component-wise maximum of v and o. Like math.Max, +0
// beats -0 and a NaN operand gives NaN; unlike it, NaN also beats +Inf.
func (v Vector) Max(o Vector) Vector {
	return Vector{
		max(v.CPU, o.CPU), max(v.MemMB, o.MemMB),
		max(v.DiskMBs, o.DiskMBs), max(v.NetMbs, o.NetMbs),
	}
}

// SnapResidue returns v with every component in (-1e-9, 0) set to +0:
// the float residue that add/remove cycles of the same demand leave
// behind. -0 and genuinely negative components are kept.
func (v Vector) SnapResidue() Vector {
	if v.CPU < 0 && v.CPU > -1e-9 {
		v.CPU = 0
	}
	if v.MemMB < 0 && v.MemMB > -1e-9 {
		v.MemMB = 0
	}
	if v.DiskMBs < 0 && v.DiskMBs > -1e-9 {
		v.DiskMBs = 0
	}
	if v.NetMbs < 0 && v.NetMbs > -1e-9 {
		v.NetMbs = 0
	}
	return v
}

// Fits reports whether v <= cap in every dimension.
func (v Vector) Fits(cap Vector) bool {
	return v.CPU <= cap.CPU && v.MemMB <= cap.MemMB &&
		v.DiskMBs <= cap.DiskMBs && v.NetMbs <= cap.NetMbs
}

// IsZero reports whether all components are zero.
func (v Vector) IsZero() bool {
	return v == Vector{}
}

// NonNegative reports whether all components are >= 0.
func (v Vector) NonNegative() bool {
	return v.CPU >= 0 && v.MemMB >= 0 && v.DiskMBs >= 0 && v.NetMbs >= 0
}

// DivideBy returns per-dimension ratios v_i / cap_i (pressure against a
// capacity). Dimensions with zero capacity yield 0 when the demand is also
// zero and +Inf otherwise.
func (v Vector) DivideBy(cap Vector) Vector {
	div := func(a, b float64) float64 {
		if b == 0 {
			if a == 0 {
				return 0
			}
			return math.Inf(1)
		}
		return a / b
	}
	return Vector{
		div(v.CPU, cap.CPU), div(v.MemMB, cap.MemMB),
		div(v.DiskMBs, cap.DiskMBs), div(v.NetMbs, cap.NetMbs),
	}
}

func (v Vector) String() string {
	return fmt.Sprintf("{cpu:%.2f mem:%.0fMB io:%.1fMB/s net:%.1fMb/s}",
		v.CPU, v.MemMB, v.DiskMBs, v.NetMbs)
}
