package pca

import (
	"math"
	"math/rand"
	"testing"

	"amoeba/internal/linalg"
)

// oracleFit runs the generic regression on the window's rows, oldest
// first, with k chosen for 95% of the variance: the fit Refit must
// reproduce. panicked reports a panic instead of a fit.
func oracleFit(w *Window) (weights [Dims]float64, intercept float64, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	rows := make([][]float64, w.Len())
	y := make([]float64, w.Len())
	for i := range rows {
		x := w.Row(i)
		rows[i] = x[:]
		y[i] = w.y[w.slot(i)]
	}
	reg := FitRegression(linalg.FromRows(rows), y, 0)
	copy(weights[:], reg.Weights)
	return weights, reg.Intercept, false
}

// refit runs Refit; panicked reports a panic instead of a fit.
func refit(w *Window) (weights [Dims]float64, intercept float64, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	weights, intercept = w.Refit()
	return weights, intercept, false
}

// same reports whether a and b are the same float64 bits, or both NaN.
// The two fits apply the same operations to the same operands, but NaN
// payloads are not a contract of the hardware's operand order.
func same(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkRefit holds Refit to the oracle on the window: the same weights
// and intercept, or a panic from both.
func checkRefit(t testing.TB, w *Window) {
	t.Helper()
	want, wantB, wantPanic := oracleFit(w)
	got, gotB, gotPanic := refit(w)
	if gotPanic != wantPanic {
		t.Fatalf("%d rows: Refit panicked %v, oracle %v", w.Len(), gotPanic, wantPanic)
	}
	if wantPanic {
		return
	}
	for j := range want {
		if !same(got[j], want[j]) {
			t.Fatalf("%d rows: weights %v, oracle %v", w.Len(), got, want)
		}
	}
	if !same(gotB, wantB) {
		t.Fatalf("%d rows: intercept %v, oracle %v", w.Len(), gotB, wantB)
	}
}

// randomWindow fills a window the way heartbeats do, in one of the
// shapes the monitor meets or could: independent features, collinear
// ones, an all-zero or constant column, all-zero features with a few
// informative rows, and repeated rows. Its capacity is the monitor's
// window or smaller, and pushing past it wraps the ring.
func randomWindow(rng *rand.Rand, minRows, maxRows int) *Window {
	capacity := minRows + rng.Intn(maxRows-minRows+1)
	w := NewWindow(capacity)
	pushes := capacity
	if rng.Intn(2) == 0 {
		pushes = minRows + rng.Intn(capacity-minRows+1) // part-filled
	} else if rng.Intn(2) == 0 {
		pushes += rng.Intn(3 * capacity) // wrapped
	}
	scale := math.Pow(10, -4+5*rng.Float64())
	shape := rng.Intn(6)
	zeroCol := rng.Intn(Dims)
	truth := [Dims]float64{rng.Float64(), rng.Float64(), rng.Float64()}
	var prev [Dims]float64
	for i := 0; i < pushes; i++ {
		var x [Dims]float64
		for j := range x {
			x[j] = scale * rng.Float64()
		}
		switch shape {
		case 1: // collinear: exact multiples, or nearly
			x[1] = 0.9 * x[0]
			if rng.Intn(2) == 0 {
				x[2] = x[0] + scale*1e-6*rng.NormFloat64()
			}
		case 2: // an all-zero column
			x[zeroCol] = 0
		case 3: // a constant column
			x[2] = scale
		case 4: // mostly no contention
			if rng.Intn(8) != 0 {
				x = [Dims]float64{}
			}
		case 5: // repeated rows
			if i > 0 && rng.Intn(2) == 0 {
				x = prev
			}
		}
		prev = x
		y := 0.1 * rng.Float64()
		for j := range x {
			y += truth[j] * x[j]
		}
		y += scale * 0.05 * rng.NormFloat64()
		w.Push(x, y)
	}
	return w
}

// TestRefitMatchesOracle holds Refit to the generic regression bit for
// bit on 10^5 random windows of 12 to 240 rows (the monitor's MinSamples
// and Window), in every shape randomWindow makes, on windows whose
// features are all zero, and on the shapes where the generic fit
// panics: fewer than two rows. Under the race detector it checks a
// twentieth of the random windows.
func TestRefitMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	windows := 100000
	if raceEnabled {
		windows /= 20
	}
	for i := 0; i < windows; i++ {
		checkRefit(t, randomWindow(rng, 12, 240))
	}
	for _, rows := range []int{12, 240} { // no contention at all: every feature zero
		w := NewWindow(240)
		for i := 0; i < rows; i++ {
			w.Push([Dims]float64{}, rng.Float64())
		}
		checkRefit(t, w)
	}
	for _, rows := range []int{0, 1} {
		w := NewWindow(4)
		for i := 0; i < rows; i++ {
			w.Push([Dims]float64{1, 2, 3}, 1)
		}
		if _, _, panicked := refit(w); !panicked {
			t.Errorf("Refit on %d rows did not panic", rows)
		}
		checkRefit(t, w)
	}
}

// TestWindowRing: a window keeps the newest samples, oldest first,
// however far its head has wrapped.
func TestWindowRing(t *testing.T) {
	w := NewWindow(5)
	for i := 1; i <= 13; i++ {
		w.Push([Dims]float64{float64(i)}, float64(-i))
		want := min(i, 5)
		if w.Len() != want {
			t.Fatalf("after %d pushes Len = %d, want %d", i, w.Len(), want)
		}
		for r := 0; r < w.Len(); r++ {
			v := float64(i - w.Len() + 1 + r)
			if w.Row(r)[0] != v || w.y[w.slot(r)] != -v {
				t.Fatalf("after %d pushes row %d = %v, %v; want %v", i, r, w.Row(r), w.y[w.slot(r)], v)
			}
		}
	}
}

// FuzzRefit holds Refit to the generic regression on fuzzed windows. The
// fuzzer picks one sample (any float64s: NaN, infinities, subnormals and
// huge values included), and a seeded generator fills the window with
// rows derived from it: the sample itself, the sample scaled by one
// factor (collinear rows), or scaled per feature; and zeroes one feature
// in some windows.
func FuzzRefit(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(240), 0.3, 0.2, 0.1, 0.5)
	f.Add(int64(2), uint8(40), uint8(16), 1e-4, 0.0, 2.0, 1.0)
	f.Add(int64(3), uint8(1), uint8(4), 1.0, 1.0, 1.0, 1.0)
	f.Add(int64(4), uint8(200), uint8(240), 1e300, -1e-300, 5e-324, math.Inf(1))
	f.Fuzz(func(t *testing.T, seed int64, rows, capacity uint8, x0, x1, x2, y float64) {
		rng := rand.New(rand.NewSource(seed))
		w := NewWindow(max(int(capacity), 1))
		zero := rng.Intn(2 * Dims) // a feature index below Dims zeroes that feature
		for i := 0; i < int(rows); i++ {
			x, target := [Dims]float64{x0, x1, x2}, y
			switch rng.Intn(3) {
			case 1:
				c := rng.Float64()
				for j := range x {
					x[j] *= c
				}
				target *= rng.Float64()
			case 2:
				for j := range x {
					x[j] *= rng.Float64()
				}
				target *= rng.Float64()
			}
			if zero < Dims {
				x[zero] = 0
			}
			w.Push(x, target)
		}
		checkRefit(t, w)
	})
}
