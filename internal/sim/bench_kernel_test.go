package sim

import (
	"fmt"
	"math"
	"testing"
)

// Kernel micro-benchmarks. These are the smoke-gated set pinned in
// BENCH_sim.json and DESIGN.md §10: schedule/fire throughput, cancel
// throughput, recurring tick cost, a dense stress queue, the hold model
// at the queue sizes and gaps the workloads produce, and the daemon
// cell's tickers. Most use a shared no-capture callback so the numbers
// measure the kernel, not the caller's closures. Each primes its slab
// and queue storage before the timer starts, so B/op and allocs/op
// report the per-event cost, zero, at any -benchtime.

var benchFired int

func benchFn() { benchFired++ }

// BenchmarkSchedule measures the At+fire round trip: events scheduled at
// spread offsets, drained in batches of 1024.
func BenchmarkSchedule(b *testing.B) {
	s := New(1)
	var offs [1024]float64
	rng := NewRNG(3)
	for i := range offs {
		offs[i] = rng.Float64() * 100
	}
	for n := 0; n < 2*len(offs); n++ { // prime: two full batches
		s.At(s.Now()+Time(offs[n&1023]), benchFn)
		if n&1023 == 1023 {
			s.Run(s.Now() + 200)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	pending := 0
	for n := 0; n < b.N; n++ {
		s.At(s.Now()+Time(offs[n&1023]), benchFn)
		if pending++; pending == 1024 {
			s.Run(s.Now() + 200)
			pending = 0
		}
	}
	s.Run(s.Now() + 200)
}

// BenchmarkCancel measures schedule+cancel pairs. The kernel must keep
// the queue bounded (lazy compaction) even though nothing ever fires.
func BenchmarkCancel(b *testing.B) {
	s := New(1)
	for n := 0; n < 64; n++ { // prime: past a compaction sweep
		s.At(s.Now()+1, benchFn).Cancel()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		h := s.At(s.Now()+1, benchFn)
		h.Cancel()
	}
	s.Run(s.Now() + 2)
}

// BenchmarkEvery measures the recurring-tick path: one ticker, b.N ticks.
func BenchmarkEvery(b *testing.B) {
	s := New(1)
	stop := s.Every(1, benchFn)
	defer stop()
	b.ReportAllocs()
	b.ResetTimer()
	s.Run(Time(b.N))
}

// BenchmarkRunDense measures a stress queue: batches of 4096 events at
// uniform offsets over 100 s, drained in one Run. No workload queues
// that many at once (BenchmarkHold's comment gives the measured sizes);
// this measures how the queue scales past them.
func BenchmarkRunDense(b *testing.B) {
	const batch = 4096
	s := New(1)
	rng := NewRNG(7)
	round := func() {
		base := s.Now()
		for j := 0; j < batch; j++ {
			s.At(base+Time(rng.Float64()*100), benchFn)
		}
		s.Run(base + 200)
	}
	for i := 0; i < 2; i++ { // prime
		round()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
}

// BenchmarkHold measures the hold model at the traffic the platform
// models produce: a fixed number of pending events, and every firing
// schedules one more. Over amoeba-bench's passes the queue held 54.3
// pending events on average at a push on amoeba-day, 44.6 on
// openwhisk-overload and 11.1 in each sharded-day cell. About half the
// pushes were arrival gaps, mostly 1-100 ms, and most of the rest query
// completions 0.1-1 s ahead (DESIGN.md §10 has the histogram). The
// increments here alternate the two: exponential gaps with a 30 ms mean
// and lognormal bodies with a 0.3 s mean. The sizes bracket the
// measured means.
func BenchmarkHold(b *testing.B) {
	var incs [4096]float64
	rng := NewRNG(11)
	mu, sigma := LognormalParams(0.3, 0.5)
	for i := range incs {
		if i%2 == 0 {
			incs[i] = rng.Exp(1 / 0.030)
		} else {
			incs[i] = math.Exp(mu + sigma*rng.StdNormal())
		}
	}
	for _, pending := range []int{11, 16, 64, 128} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			s := New(1)
			n, limit := 0, -1
			var hold func()
			hold = func() {
				if n++; n == limit {
					s.Halt()
				}
				s.After(incs[n&(len(incs)-1)], hold)
			}
			for i := 0; i < pending; i++ {
				s.After(incs[i], hold)
			}
			s.Run(60) // warm the slab and the queue's storage
			n, limit = 0, b.N
			b.ReportAllocs()
			b.ResetTimer()
			s.Run(Time(math.Inf(1)))
		})
	}
}

// BenchmarkTickers measures the monitor daemon cell's queue, which holds
// only tickers: three meter probes at 1 s and a pressure refresh at 10 s
// (monitor.DefaultConfig). The probes tie at each second, with the ring
// otherwise empty, and the refresh lies past the ring's window, so it
// migrates from the far tier every ten seconds. One op is one tick.
func BenchmarkTickers(b *testing.B) {
	s := New(1)
	n, limit := 0, -1
	tick := func() {
		if n++; n == limit {
			s.Halt()
		}
	}
	for i := 0; i < 3; i++ {
		s.Every(1, tick)
	}
	s.Every(10, tick)
	s.Run(60) // prime the slab and the queue's storage
	n, limit = 0, b.N
	b.ReportAllocs()
	b.ResetTimer()
	s.Run(Time(math.Inf(1)))
}
