// Package shardwork exercises shardsafe: package-level writes,
// non-parameter channel sends, and mutex locks reachable from
// //amoeba:shard workers are flagged; parameter channels, locals,
// receiver state, global rand (nodeterminism's rule), and
// //amoeba:shardsafe boundaries are not.
package shardwork

import (
	"math/rand"
	"sync"

	"shardhelper"
)

var (
	counter int
	results = make(chan int, 8)
	table   = map[string]int{}
	mu      sync.Mutex
)

// Worker is a clean shard body: it reads jobs from a parameter channel,
// keeps its state local, and sends results on a parameter channel.
//
//amoeba:shard
func Worker(jobs <-chan int, out chan<- int) {
	sum := 0
	for j := range jobs {
		sum += shardhelper.Pure(j)
	}
	out <- sum
}

// WritesGlobal mutates package state from a shard body.
//
//amoeba:shard
func WritesGlobal(jobs <-chan int) {
	for j := range jobs {
		counter += j // want `shard worker WritesGlobal writes package-level counter`
	}
}

// SendsGlobal leaks results onto a channel the driver never handed it.
//
//amoeba:shard
func SendsGlobal(jobs <-chan int) {
	for j := range jobs {
		results <- j // want `shard worker SendsGlobal sends on results, a channel not passed in as a parameter`
	}
}

// LocalChannel fans out to helper goroutines over channels it made
// itself — shard-internal plumbing, allowed.
//
//amoeba:shard
func LocalChannel(jobs <-chan int, out chan<- int) {
	inner := make(chan int, 4)
	go func() {
		for j := range jobs {
			inner <- j
		}
		close(inner)
	}()
	for v := range inner {
		out <- v
	}
}

// Locks acquires a shared mutex inside the shard body.
//
//amoeba:shard
func Locks(jobs <-chan int) {
	for range jobs {
		mu.Lock() // want `shard worker Locks locks sync\.Mutex, a sign of state shared across shards`
		mu.Unlock()
	}
}

// GlobalRand draws from the process-wide source: nodeterminism's rule,
// so shardsafe stays quiet.
//
//amoeba:shard
func GlobalRand(out chan<- int) {
	out <- rand.Int()
}

// Transitive reaches a package-level write through a local helper and a
// cross-package callee; both report at the call edge with the chain.
//
//amoeba:shard
func Transitive(jobs <-chan int) {
	for j := range jobs {
		bump(j)                   // want `shard worker Transitive reaches code that writes package-level counter via bump`
		shardhelper.Accumulate(j) // want `shard worker Transitive reaches code that writes package-level Total via shardhelper\.Accumulate`
	}
}

func bump(x int) { counter += x }

// Audited calls through a //amoeba:shardsafe boundary: the walk trusts
// the annotation and stays quiet about the lock and write inside.
//
//amoeba:shard
func Audited(jobs <-chan int, out chan<- int) {
	for j := range jobs {
		out <- shardhelper.Guarded(j)
	}
}

// DeletesGlobal mutates a package-level map in place.
//
//amoeba:shard
func DeletesGlobal(keys <-chan string) {
	for k := range keys {
		delete(table, k) // want `shard worker DeletesGlobal mutates package-level table via delete`
	}
}

// Allowed documents a deliberate exception with the standard annotation.
//
//amoeba:shard
func Allowed(jobs <-chan int) {
	for j := range jobs {
		//amoeba:allow shardsafe single-writer stat, read only after the pool joins
		counter += j
	}
}

// mutator models interface dispatch into shared state.
type mutator interface{ Mutate() }

type globalMutator struct{}

func (globalMutator) Mutate() { counter++ }

// defaultMutator instantiates globalMutator, making it live for the
// devirtualization index.
var defaultMutator mutator = globalMutator{}

// DispatchShard reaches the package-level write through devirtualized
// interface dispatch.
//
//amoeba:shard
func DispatchShard(jobs <-chan int, m mutator) {
	for range jobs {
		m.Mutate() // want `shard worker DispatchShard reaches code that writes package-level counter via dynamic dispatch on mutator\.Mutate => globalMutator\.Mutate`
	}
}

// FuncValueShard reaches the write through a func-valued local.
//
//amoeba:shard
func FuncValueShard(jobs <-chan int) {
	f := bump
	for j := range jobs {
		f(j) // want `shard worker FuncValueShard reaches code that writes package-level counter via func value f => bump`
	}
}

// Box has two type parameters; its root is named by the receiver's
// type without them.
type Box[K comparable, V any] struct{ m map[K]V }

//amoeba:shard
func (b *Box[K, V]) M(jobs <-chan int) {
	for j := range jobs {
		counter += j + len(b.m) // want `shard worker Box\.M writes package-level counter`
	}
}

// NotAShard is unannotated: shardsafe roots nowhere here, so the write
// is another analyzer's business.
func NotAShard() {
	counter++
}
