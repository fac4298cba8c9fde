package sim

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestStreamMatchesDirectDraws checks a normal stream against a twin
// RNG drawing directly, bit for bit, over several batches and seeds. The
// lognormal parameters alternate the way the serverless platform's
// cold-start and body draws share one stream.
func TestStreamMatchesDirectDraws(t *testing.T) {
	params := [][2]float64{{0.15, 0.25}, {-3.2, 0.4}, {0, 1}, {1.7, 0.05}}
	for _, seed := range []uint64{1, 42, 0xA0EBA, 1<<63 + 5} {
		s := NewStream(NewRNG(seed), StdNormals)
		twin := NewRNG(seed)
		for i := 0; i < 3*streamBatchLen+17; i++ {
			mu, sigma := params[i%len(params)][0], params[i%len(params)][1]
			got := math.Exp(mu + sigma*s.Next())
			want := math.Exp(twin.Normal(mu, sigma))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %#x, draw %d: stream gives %v, direct draw %v", seed, i, got, want)
			}
		}
	}
}

// TestStreamLeavesNoGoroutine abandons streams mid-batch while their
// helpers are still filling, and checks that every helper exits once its
// fills are done.
func TestStreamLeavesNoGoroutine(t *testing.T) {
	const streams = 8
	before := runtime.NumGoroutine()
	gate := make(chan struct{})
	var blocked atomic.Int32
	for k := 0; k < streams; k++ {
		fills := 0 // the helpers of one stream run one at a time
		s := NewStream(NewRNG(uint64(k)), func(r *RNG, buf []float64) {
			if fills++; fills == 4 {
				blocked.Add(1)
				<-gate
			}
			StdNormals(r, buf)
		})
		// Spend two batches and half of the third: the fourth fill, the
		// refill of the second batch, is under way and blocks.
		for i := 0; i < 2*streamBatchLen+streamBatchLen/2; i++ {
			s.Next()
		}
	}
	waitFor(t, func() bool { return blocked.Load() == streams }, "every abandoned stream's helper to reach its last fill")
	close(gate)
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before }, "the helpers to exit")
}

// waitFor polls cond for up to ten seconds and fails the test if it never
// holds.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// TestZeroAllocStreamNext asserts that drawing from a stream allocates
// nothing once its batches exist. Every run spends two batches, so it
// holds two hand-offs and at least one helper spawn: AllocsPerRun rounds
// down, and an allocating spawn must cost a whole object per run to show.
//
//amoeba:alloctest sim.Stream.Next
func TestZeroAllocStreamNext(t *testing.T) {
	s := NewStream(NewRNG(1), StdNormals)
	for i := 0; i < 4*streamBatchLen; i++ { // batches built, helpers warmed up
		s.Next()
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 2*streamBatchLen; i++ {
			s.Next()
		}
	})
	if allocs != 0 {
		t.Errorf("two batches of draws allocate %.2f objects, want 0", allocs)
	}
}
