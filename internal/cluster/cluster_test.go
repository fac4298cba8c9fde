package cluster

import "testing"

func TestDefaultNodeMatchesTableII(t *testing.T) {
	n := DefaultNode("x")
	if n.Cores != 40 {
		t.Errorf("cores = %d, want 40", n.Cores)
	}
	if n.MemMB != 256*1024 {
		t.Errorf("mem = %v, want 256GB", n.MemMB)
	}
	if n.NetMbps != 25000 {
		t.Errorf("net = %v, want 25000 Mb/s", n.NetMbps)
	}
	if err := n.Validate(); err != nil {
		t.Errorf("default node invalid: %v", err)
	}
}

func TestCapacityVector(t *testing.T) {
	n := DefaultNode("x")
	c := n.Capacity()
	if c.CPU != 40 || c.MemMB != 256*1024 || c.DiskMBs != n.DiskMBps || c.NetMbs != 25000 {
		t.Errorf("capacity = %v", c)
	}
}

func TestValidateRejectsBadNodes(t *testing.T) {
	bad := []Node{
		{Name: "a", Cores: 0, MemMB: 1, DiskMBps: 1, NetMbps: 1},
		{Name: "b", Cores: 1, MemMB: 0, DiskMBps: 1, NetMbps: 1},
		{Name: "c", Cores: 1, MemMB: 1, DiskMBps: -1, NetMbps: 1},
	}
	for _, n := range bad {
		if n.Validate() == nil {
			t.Errorf("node %v accepted", n)
		}
	}
}
