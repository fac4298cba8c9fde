// Package cluster models a node of the paper's Table II testbed: a fixed
// core count, DRAM size, NVMe disk bandwidth, and NIC bandwidth. The
// serverless platform and the IaaS VM groups each run on one such node.
package cluster

import (
	"fmt"

	"amoeba/internal/resources"
)

// Node describes one physical machine.
type Node struct {
	Name     string
	Cores    int     // physical cores
	MemMB    float64 // DRAM in MB
	DiskMBps float64 // sustained disk bandwidth, MB/s
	NetMbps  float64 // NIC bandwidth, Mb/s
}

// DefaultNode returns the Table II configuration: Intel Xeon Platinum
// 8163, 40 cores, 256 GB DRAM, NVMe SSD, 25 Gb/s NIC. The NVMe bandwidth
// is not listed in the table; 2 GB/s is a representative sustained figure
// for that generation of drive.
func DefaultNode(name string) Node {
	return Node{
		Name:     name,
		Cores:    40,
		MemMB:    256 * 1024,
		DiskMBps: 2000,
		NetMbps:  25000,
	}
}

// Capacity returns the node's resources as a vector.
func (n Node) Capacity() resources.Vector {
	return resources.Vector{
		CPU:     float64(n.Cores),
		MemMB:   n.MemMB,
		DiskMBs: n.DiskMBps,
		NetMbs:  n.NetMbps,
	}
}

// Validate reports configuration errors.
func (n Node) Validate() error {
	if n.Cores <= 0 {
		return fmt.Errorf("cluster: node %q has %d cores", n.Name, n.Cores)
	}
	if n.MemMB <= 0 || n.DiskMBps <= 0 || n.NetMbps <= 0 {
		return fmt.Errorf("cluster: node %q has non-positive capacity %v", n.Name, n.Capacity())
	}
	return nil
}

func (n Node) String() string {
	return fmt.Sprintf("%s(%d cores, %.0fGB, %.0fMB/s disk, %.0fMb/s net)",
		n.Name, n.Cores, n.MemMB/1024, n.DiskMBps, n.NetMbps)
}
