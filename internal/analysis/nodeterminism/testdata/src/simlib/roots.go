package simlib

// Wall clocks and global rand reached from the call-graph checks' roots:
// in a hot root, in a simulator callback, in a helper package a root
// reaches, and in a shard worker. nodeterminism is the one check that
// owns these rules; it flags each call site in any non-main package,
// whatever reaches it.

import (
	"math/rand"
	"time"

	"simhelper"
)

// Simulator stands in for sim.Simulator.
type Simulator struct{}

// After schedules fn after a simulated delay.
func (s *Simulator) After(delay float64, fn func()) {}

// HotRoot reads the wall clock directly.
//
//amoeba:hotpath
func HotRoot() int64 {
	return time.Now().UnixNano() // want `time\.Now reads the wall clock`
}

// Schedule reads the wall clock inside a simulator callback.
func Schedule(s *Simulator) {
	s.After(1, func() {
		time.Sleep(time.Millisecond) // want `time\.Sleep blocks on the wall clock`
	})
}

// ReachesHelper reaches the wall-clock read in simhelper, flagged there.
//
//amoeba:hotpath
func ReachesHelper() int64 { return simhelper.Stamp() }

// ShardRand draws from the global rand source in a shard worker.
//
//amoeba:shard
func ShardRand(out chan<- int) {
	out <- rand.Int() // want `math/rand\.Int uses global random state`
}
