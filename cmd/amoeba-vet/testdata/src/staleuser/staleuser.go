// Package staleuser exercises amoeba-vet -stale: annotations whose
// reason text starts with "stale:" suppress nothing and must be
// reported; the others are live and must be credited. The test reads
// that convention back out of this file.
package staleuser

import (
	"fmt"
	"strings"
	"sync"
)

var (
	mu    sync.Mutex
	total int
)

// Hot is a hot-path root with one deliberately suppressed violation.
//
//amoeba:hotpath
func Hot() int {
	//amoeba:allow hotpath live: deliberate startup trace line
	n, _ := fmt.Println("hot")
	return n + upperLen("hot")
}

// upperLen is reached from Hot, but the calls its annotation covers
// reach nothing the hot path forbids.
func upperLen(s string) int {
	//amoeba:allow hotpath stale: the covered calls reach no violation
	return len(strings.ToUpper(s))
}

// Cold carries an annotation with nothing to suppress.
func Cold() int {
	//amoeba:allow hotpath stale: nothing on this line violates anything
	return 1
}

// NoAlloc amortises growth behind a live allowalloc.
//
//amoeba:noalloc
func NoAlloc(dst []int, v int) []int {
	//amoeba:allowalloc(live: amortised backing-array growth)
	dst = append(dst, v)
	return dst
}

// coldAlloc is not a noalloc function, so its annotation is dead.
func coldAlloc() []int {
	//amoeba:allowalloc(stale: not inside a noalloc function)
	return append([]int(nil), 1)
}

// guarded is an audited boundary that still shields a real lock.
//
//amoeba:shardsafe live: lock held briefly around the shared total
func guarded(x int) int {
	mu.Lock()
	defer mu.Unlock()
	total += x
	return total
}

// harmless carries a boundary marker that shields nothing.
//
//amoeba:shardsafe stale: nothing inside needs the boundary
func harmless(x int) int { return x * 2 }

// worker is the shard root that reaches both boundaries.
//
//amoeba:shard
func worker(jobs <-chan int, out chan<- int) {
	for j := range jobs {
		out <- guarded(j) + harmless(j)
	}
}

var _ = coldAlloc
var _ = worker
