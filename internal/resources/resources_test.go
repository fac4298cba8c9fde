package resources

import (
	"math"
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
	mean := u.MeanAt(20)
	if mean.CPU != 3 {
		t.Errorf("mean CPU = %v, want 3", mean.CPU)
	}
	if u.Peak().CPU != 4 {
		t.Errorf("peak CPU = %v, want 4", u.Peak().CPU)
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
