package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(7)
	child := parent.Split()
	// The child must not replay the parent's stream.
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("parent and child streams coincide %d/100 times", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(3)
	const rate = 2.0
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(rate)
	}
	mean := sum / n
	if math.Abs(mean-1/rate) > 0.01 {
		t.Fatalf("Exp mean = %v, want ~%v", mean, 1/rate)
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(5)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal(10, 3)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("Normal mean = %v, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-3) > 0.05 {
		t.Fatalf("Normal stddev = %v, want ~3", math.Sqrt(variance))
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(9)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) produced only %d distinct values", len(seen))
	}
}

func TestRNGPanics(t *testing.T) {
	r := NewRNG(1)
	for name, fn := range map[string]func(){
		"Intn": func() { r.Intn(0) },
		"Exp":  func() { r.Exp(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with invalid argument did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestRNGUniformRangeProperty(t *testing.T) {
	r := NewRNG(11)
	f := func(loRaw, span uint16) bool {
		lo := float64(loRaw)
		hi := lo + float64(span) + 1
		v := r.Uniform(lo, hi)
		return v >= lo && v < hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSimulatorOrdering(t *testing.T) {
	s := New(1)
	var order []int
	s.At(3, func() { order = append(order, 3) })
	s.At(1, func() { order = append(order, 1) })
	s.At(2, func() { order = append(order, 2) })
	s.Run(10)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
	if s.Now() != 10 {
		t.Fatalf("clock = %v after Run(10), want 10", s.Now())
	}
}

func TestSimulatorEqualTimeFIFO(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { order = append(order, i) })
	}
	s.Run(10)
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events not FIFO: %v", order)
		}
	}
}

func TestSimulatorHorizon(t *testing.T) {
	s := New(1)
	fired := false
	s.At(100, func() { fired = true })
	n := s.Run(50)
	if fired || n != 0 {
		t.Fatal("event beyond horizon fired")
	}
	if s.Now() != 50 {
		t.Fatalf("clock = %v, want 50", s.Now())
	}
	// Continuing the run past the event's time must fire it.
	s.Run(200)
	if !fired {
		t.Fatal("event did not fire on second Run")
	}
}

func TestSimulatorCancel(t *testing.T) {
	s := New(1)
	fired := false
	h := s.At(5, func() { fired = true })
	h.Cancel()
	s.Run(10)
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestSimulatorAfterAndNesting(t *testing.T) {
	s := New(1)
	var times []Time
	s.After(1, func() {
		times = append(times, s.Now())
		s.After(2, func() {
			times = append(times, s.Now())
		})
	})
	s.Run(10)
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Fatalf("nested scheduling produced %v, want [1 3]", times)
	}
}

func TestSimulatorPastPanics(t *testing.T) {
	s := New(1)
	s.At(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(1, func() {})
	})
	s.Run(10)
}

func TestSimulatorHalt(t *testing.T) {
	s := New(1)
	count := 0
	for i := 1; i <= 10; i++ {
		i := i
		s.At(Time(i), func() {
			count++
			if i == 3 {
				s.Halt()
			}
		})
	}
	s.Run(100)
	if count != 3 {
		t.Fatalf("fired %d events after Halt at 3rd, want 3", count)
	}
	if s.Now() != 3 {
		t.Fatalf("clock = %v after halt, want 3", s.Now())
	}
}

func TestSimulatorEvery(t *testing.T) {
	s := New(1)
	var ticks []Time
	stop := s.Every(2, func() { ticks = append(ticks, s.Now()) })
	s.At(7, func() { stop() })
	s.Run(20)
	want := []Time{2, 4, 6}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

func TestSimulatorDeterminismProperty(t *testing.T) {
	// The same seed and schedule must produce the same trajectory.
	run := func(seed uint64) []float64 {
		s := New(seed)
		var out []float64
		var spawn func()
		spawn = func() {
			v := s.RNG().Exp(1.0)
			out = append(out, float64(s.Now()), v)
			if len(out) < 40 {
				s.After(v, spawn)
			}
		}
		s.After(0.1, spawn)
		s.Run(1e9)
		return out
	}
	a, b := run(1234), run(1234)
	if len(a) != len(b) {
		t.Fatalf("trajectory lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trajectories diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func BenchmarkSimulatorSchedule(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.At(Time(i), func() {})
	}
	s.Run(Time(b.N + 1))
}

// TestHorizon pins what Horizon reports: zero before the first Run, the
// current call's horizon while events fire, and the last one after.
func TestHorizon(t *testing.T) {
	s := New(1)
	if h := s.Horizon(); h != 0 {
		t.Fatalf("Horizon before Run = %v, want 0", h)
	}
	var seen []Time
	s.At(3, func() { seen = append(seen, s.Horizon()) })
	s.At(12, func() { seen = append(seen, s.Horizon()) })
	s.Run(10)
	s.Run(20)
	if len(seen) != 2 || seen[0] != 10 || seen[1] != 20 {
		t.Fatalf("horizons seen by events = %v, want [10 20]", seen)
	}
	if h := s.Horizon(); h != 20 {
		t.Fatalf("Horizon after Run = %v, want 20", h)
	}
}
