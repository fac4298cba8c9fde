package resources

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func vec(c, m, d, n float64) Vector { return Vector{CPU: c, MemMB: m, DiskMBs: d, NetMbs: n} }

func TestKindString(t *testing.T) {
	want := map[Kind]string{CPU: "cpu", Memory: "memory", DiskIO: "disk_io", Network: "network"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if len(Kinds()) != int(NumKinds) {
		t.Errorf("Kinds() has %d entries, want %d", len(Kinds()), NumKinds)
	}
}

func TestVectorGetSetRoundTrip(t *testing.T) {
	v := Vector{}
	for i, k := range Kinds() {
		v = v.Set(k, float64(i+1))
	}
	for i, k := range Kinds() {
		if got := v.Get(k); got != float64(i+1) {
			t.Errorf("Get(%v) = %v, want %v", k, got, i+1)
		}
	}
}

func TestVectorArithmetic(t *testing.T) {
	a, b := vec(1, 2, 3, 4), vec(10, 20, 30, 40)
	if got := a.Add(b); got != vec(11, 22, 33, 44) {
		t.Errorf("Add = %v", got)
	}
	if got := b.Sub(a); got != vec(9, 18, 27, 36) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != vec(2, 4, 6, 8) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Max(vec(0, 5, 2, 100)); got != vec(1, 5, 3, 100) {
		t.Errorf("Max = %v", got)
	}
}

// TestVectorMaxFollowsMathMax pins Max to math.Max's special cases: +0
// beats -0 in either order, and NaN in either operand wins — except
// against +Inf, where math.Max returns +Inf and Max stays NaN. Resource
// allocations are finite, so the exception never reaches a result.
func TestVectorMaxFollowsMathMax(t *testing.T) {
	negZero, nan, inf := math.Copysign(0, -1), math.NaN(), math.Inf(1)
	vals := []float64{negZero, 0, 1, -1, nan, inf, -inf}
	for _, x := range vals {
		for _, y := range vals {
			got := vec(x, y, x, y).Max(vec(y, x, y, x))
			want := math.Max(x, y)
			if math.IsNaN(x) || math.IsNaN(y) {
				want = nan
			}
			for _, g := range []float64{got.CPU, got.MemMB, got.DiskMBs, got.NetMbs} {
				if math.Float64bits(g) != math.Float64bits(want) &&
					!(math.IsNaN(g) && math.IsNaN(want)) {
					t.Errorf("Max(%v, %v) = %v, want %v", x, y, g, want)
				}
			}
		}
	}
}

func TestVectorFits(t *testing.T) {
	cap := vec(40, 256000, 2000, 25000)
	if !vec(1, 256, 10, 5).Fits(cap) {
		t.Error("small demand should fit")
	}
	if vec(41, 0, 0, 0).Fits(cap) {
		t.Error("over-CPU demand should not fit")
	}
	if !cap.Fits(cap) {
		t.Error("capacity must fit itself (boundary inclusive)")
	}
}

func TestVectorDivideBy(t *testing.T) {
	p := vec(20, 128000, 500, 12500).DivideBy(vec(40, 256000, 2000, 25000))
	want := vec(0.5, 0.5, 0.25, 0.5)
	if p != want {
		t.Errorf("DivideBy = %v, want %v", p, want)
	}
	z := vec(0, 0, 0, 0).DivideBy(Vector{})
	if z != (Vector{}) {
		t.Errorf("0/0 should be 0, got %v", z)
	}
	inf := vec(1, 0, 0, 0).DivideBy(Vector{})
	if !math.IsInf(inf.CPU, 1) {
		t.Errorf("x/0 should be +Inf, got %v", inf.CPU)
	}
}

func TestVectorAlgebraProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	gen := func(a, b, c, d uint8) Vector {
		return vec(float64(a), float64(b), float64(c), float64(d))
	}
	// Add is commutative.
	if err := quick.Check(func(a1, a2, a3, a4, b1, b2, b3, b4 uint8) bool {
		x, y := gen(a1, a2, a3, a4), gen(b1, b2, b3, b4)
		return x.Add(y) == y.Add(x)
	}, cfg); err != nil {
		t.Error(err)
	}
	// Sub then Add restores.
	if err := quick.Check(func(a1, a2, a3, a4, b1, b2, b3, b4 uint8) bool {
		x, y := gen(a1, a2, a3, a4), gen(b1, b2, b3, b4)
		return x.Add(y).Sub(y) == x
	}, cfg); err != nil {
		t.Error(err)
	}
	// Scale distributes over Add.
	if err := quick.Check(func(a1, a2, a3, a4, b1, b2, b3, b4 uint8, f uint8) bool {
		x, y := gen(a1, a2, a3, a4), gen(b1, b2, b3, b4)
		s := float64(f)
		return x.Add(y).Scale(s) == x.Scale(s).Add(y.Scale(s))
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestUsageIntegration(t *testing.T) {
	u := NewUsage(0)
	u.Record(0, vec(4, 1024, 0, 0)) // 4 cores from t=0
	u.Record(10, vec(2, 512, 0, 0)) // drop to 2 cores at t=10
	total := u.TotalAt(20)
	// 4*10 + 2*10 = 60 core-seconds; 1024*10 + 512*10 = 15360 MB-s.
	if total.CPU != 60 {
		t.Errorf("CPU integral = %v, want 60", total.CPU)
	}
	if total.MemMB != 15360 {
		t.Errorf("Mem integral = %v, want 15360", total.MemMB)
	}
}

func TestUsageAdjust(t *testing.T) {
	u := NewUsage(0)
	u.Adjust(0, vec(1, 256, 0, 0))
	u.Adjust(5, vec(1, 256, 0, 0))
	u.Adjust(10, vec(-1, -256, 0, 0))
	total := u.TotalAt(20)
	// 1 core for 5s, 2 cores for 5s, 1 core for 10s = 25 core-seconds.
	if total.CPU != 25 {
		t.Errorf("CPU integral = %v, want 25", total.CPU)
	}
	if u.Current() != vec(1, 256, 0, 0) {
		t.Errorf("current = %v", u.Current())
	}
}

// adjustOracle is Usage.Adjust as it was first written, a loop over
// Kinds() through Get and Set. It reports whether it snapped a residue.
func adjustOracle(u *Usage, t float64, delta Vector) (snapped bool) {
	next := u.current.Add(delta)
	for _, k := range Kinds() {
		if v := next.Get(k); v < 0 && v > -1e-9 {
			next = next.Set(k, 0)
			snapped = true
		}
	}
	u.Record(t, next)
	if !u.current.NonNegative() {
		panic("allocation went negative")
	}
	return snapped
}

// sameBits reports whether a and b agree bit for bit in every component,
// so +0 and -0 differ.
func sameBits(a, b Vector) bool {
	return math.Float64bits(a.CPU) == math.Float64bits(b.CPU) &&
		math.Float64bits(a.MemMB) == math.Float64bits(b.MemMB) &&
		math.Float64bits(a.DiskMBs) == math.Float64bits(b.DiskMBs) &&
		math.Float64bits(a.NetMbs) == math.Float64bits(b.NetMbs)
}

// TestUsageAdjustMatchesOracle drives Adjust and adjustOracle through
// the same random add/remove cycles and requires current and integral
// to agree bit for bit after every step. Demands are sums of
// decimal fractions, the platforms' shape, so removing them in another
// order than they were added leaves residue for the snap to catch.
func TestUsageAdjustMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 1))
	component := func() float64 {
		switch rng.IntN(4) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return float64(rng.IntN(50)) / 10
		}
		return rng.Float64() * 300
	}
	snaps := 0
	for run := 0; run < 200; run++ {
		got, want := NewUsage(0), NewUsage(0)
		var live []Vector
		now := 0.0
		for step := 0; step < 500; step++ {
			now += float64(rng.IntN(3)) * rng.Float64()
			var delta Vector
			if len(live) == 0 || rng.IntN(2) == 0 {
				delta = Vector{component(), component(), component(), component()}
				live = append(live, delta)
			} else {
				i := rng.IntN(len(live))
				delta = live[i].Scale(-1)
				live = append(live[:i], live[i+1:]...)
			}
			got.Adjust(now, delta)
			if adjustOracle(want, now, delta) {
				snaps++
			}
			if !sameBits(got.current, want.current) || !sameBits(got.integral, want.integral) {
				t.Fatalf("run %d step %d: Adjust gives current %v integral %v, oracle %v %v",
					run, step, got.current, got.integral, want.current, want.integral)
			}
		}
	}
	if snaps == 0 {
		t.Fatal("no step left residue to snap: the cycles do not exercise the snap")
	}
}

// TestUsageAdjustSnapsResidue pins the snap per component: a residue in
// (-1e-9, 0) becomes +0 and leaves the other components alone, -0 stays
// -0, and -1e-9 itself is a negative allocation, which panics.
func TestUsageAdjustSnapsResidue(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, k := range Kinds() {
		u := NewUsage(0)
		u.Adjust(0, vec(1, 2, 3, 4))
		u.Adjust(1, vec(-1, -2, -3, -4).Set(k, -u.Current().Get(k)-5e-10))
		if want := (Vector{}); !sameBits(u.Current(), want) {
			t.Errorf("%v: residue -5e-10 left current %v, want +0 everywhere", k, u.Current())
		}

		u = NewUsage(0)
		u.Record(0, Vector{}.Set(k, negZero))
		u.Adjust(1, Vector{}.Set(k, negZero))
		if got := u.Current().Get(k); math.Float64bits(got) != math.Float64bits(negZero) {
			t.Errorf("%v: -0 + -0 became %v, want -0", k, got)
		}

		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v: an allocation of -1e-9 did not panic", k)
				}
			}()
			NewUsage(0).Adjust(1, Vector{}.Set(k, -1e-9))
		}()
	}
}

func TestUsageBackwardsTimePanics(t *testing.T) {
	u := NewUsage(10)
	defer func() {
		if recover() == nil {
			t.Error("Record with earlier time did not panic")
		}
	}()
	u.Record(5, Vector{})
}

func TestUsageNegativeAllocationPanics(t *testing.T) {
	u := NewUsage(0)
	defer func() {
		if recover() == nil {
			t.Error("Adjust below zero did not panic")
		}
	}()
	u.Adjust(1, vec(-1, 0, 0, 0))
}

func TestUsageIdempotentTotal(t *testing.T) {
	u := NewUsage(0)
	u.Record(0, vec(2, 0, 0, 0))
	a := u.TotalAt(10)
	b := u.TotalAt(10)
	if a != b {
		t.Errorf("TotalAt not idempotent: %v then %v", a, b)
	}
}
