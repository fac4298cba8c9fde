package obs

import (
	"bytes"
	"math"
	"math/big"
	"math/rand/v2"
	"strconv"
	"testing"
)

// floatPatterns is how many random bit patterns
// TestAppendFloatMatchesStrconv compares. FuzzAppendFloat searches
// further: go test -fuzz FuzzAppendFloat -fuzztime 10m ./internal/obs/.
const floatPatterns = 2_000_000

// appendFloatStrconv is the oracle, the encoder's float formatting
// before it had its own: a finite x as encoding/json writes it, strconv's
// shortest decimal in 'f' form unless |x| < 1e-6 or |x| >= 1e21, and in
// 'e' form without a leading zero in a negative exponent (e-7, not e-07).
func appendFloatStrconv(b []byte, x float64) []byte {
	format := byte('f')
	if abs := math.Abs(x); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, x, format, -1, 64)
	if format == 'e' {
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// floatChecker compares appendFloat with the oracle on x and −x and
// stops the test at the first difference.
type floatChecker struct {
	tb        testing.TB
	got, want []byte
	n         int
}

func (c *floatChecker) check(x float64) {
	for _, v := range [2]float64{x, -x} {
		c.got = appendFloat(c.got[:0], v)
		c.want = appendFloatStrconv(c.want[:0], v)
		c.n++
		if !bytes.Equal(c.got, c.want) {
			c.tb.Fatalf("appendFloat(%#016x) = %s, strconv writes %s", math.Float64bits(v), c.got, c.want)
		}
	}
}

// checkBits checks the finite value with bit pattern u and its
// neighbours one unit in the last place away.
func (c *floatChecker) checkBits(u uint64) {
	for _, v := range [3]uint64{u - 1, u, u + 1} {
		if x := math.Float64frombits(v); !math.IsNaN(x) && !math.IsInf(x, 0) {
			c.check(x)
		}
	}
}

// TestAppendFloatMatchesStrconv: appendFloat writes the oracle's bytes,
// sign included, on every power of two and of ten with its neighbours,
// on every subnormal below 2^20, on integers up to 2^53, on values with
// one to seventeen significant digits, at the 1e-6 and 1e21 form
// cutoffs, and on random bit patterns. Under the race detector the
// sweeps take every twentieth value.
func TestAppendFloatMatchesStrconv(t *testing.T) {
	step := 1
	if raceEnabled {
		step = 20
	}
	c := &floatChecker{tb: t}
	c.check(0)
	c.check(math.MaxFloat64)
	for _, cut := range []float64{1e-6, 1e21} {
		u := math.Float64bits(cut)
		for d := uint64(0); d < 8; d++ {
			c.checkBits(u - d)
			c.checkBits(u + d)
		}
	}
	// Every power of two, whose interval is irregular when normal, and
	// so every row of the power-of-ten table.
	for bq := uint64(1); bq < 0x7FF; bq++ {
		c.checkBits(bq << mantBits)
	}
	for j := 0; j < mantBits; j++ {
		c.checkBits(1 << j)
	}
	for k := -323; k <= 308; k++ {
		x, err := strconv.ParseFloat("1e"+strconv.Itoa(k), 64)
		if err != nil {
			t.Fatal(err)
		}
		c.checkBits(math.Float64bits(x))
	}
	for u := uint64(1); u < 1<<20; u += uint64(step) {
		c.check(math.Float64frombits(u))
	}
	rng := rand.New(rand.NewPCG(0xA0EBA, 27))
	for i := 0; i < 200000; i += step {
		c.check(float64(i))
		c.check(float64(rng.Uint64N(1 << 53)))
	}
	for i := -1000; i <= 1000; i++ {
		c.check(float64(1<<53 + i))
	}
	// Short decimals: values whose shortest form has fewer than sixteen
	// digits, which random bit patterns almost never are.
	for i := 0; i < 200000; i += step {
		n := 1 + rng.IntN(17)
		m := rng.Uint64N(uint64(math.Pow10(n)))
		s := strconv.FormatUint(m, 10) + "e" + strconv.Itoa(rng.IntN(650)-340)
		if x, err := strconv.ParseFloat(s, 64); err == nil {
			c.check(x)
		}
	}
	for i := 0; i < floatPatterns; i += step {
		if x := math.Float64frombits(rng.Uint64()); !math.IsNaN(x) && !math.IsInf(x, 0) {
			c.check(x)
		}
	}
	t.Logf("%d values match strconv", c.n)
}

// FuzzAppendFloat compares appendFloat with the oracle on one float.
func FuzzAppendFloat(f *testing.F) {
	for _, x := range floatCorpus {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x float64) {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			(&floatChecker{tb: t}).check(x)
		}
	})
}

// TestFloorLogs checks toDecimal's three floored logarithms exactly, in
// big rationals, over every exponent they are called with:
// 10^k <= 2^q < 10^(k+1) for k = flog10pow2(q), the same for 3/4·2^q,
// and 2^f <= 10^e < 2^(f+1) for f = flog2pow10(e).
func TestFloorLogs(t *testing.T) {
	pow := func(base, e int) *big.Rat {
		p := new(big.Int).Exp(big.NewInt(int64(base)), big.NewInt(int64(max(e, -e))), nil)
		if e < 0 {
			return new(big.Rat).SetFrac(big.NewInt(1), p)
		}
		return new(big.Rat).SetInt(p)
	}
	brackets := func(lo, x, hi *big.Rat) bool { return lo.Cmp(x) <= 0 && x.Cmp(hi) < 0 }
	threeQuarters := big.NewRat(3, 4)
	for q := qMin; q <= 2046-expBias; q++ {
		x := pow(2, q)
		if k := flog10pow2(q); !brackets(pow(10, k), x, pow(10, k+1)) {
			t.Fatalf("flog10pow2(%d) = %d", q, k)
		}
		x.Mul(x, threeQuarters)
		if k := flog10threeQuartersPow2(q); !brackets(pow(10, k), x, pow(10, k+1)) {
			t.Fatalf("flog10threeQuartersPow2(%d) = %d", q, k)
		}
	}
	for e := -kMax; e <= -kMin; e++ {
		if f := flog2pow10(e); !brackets(pow(2, f), pow(10, e), pow(2, f+1)) {
			t.Fatalf("flog2pow10(%d) = %d", e, f)
		}
	}
}

// TestPow10Table pins table rows to values known without the table's
// construction: 10^0 = 2^125 · 2^−125, 10^1 = 5·2^123 · 2^−122,
// 10^38 = 5·10^37 · 2, 10^−1 = 0x3333…33.33 · 2^−129, and the rows at
// both ends of the range against a plain big-integer division.
func TestPow10Table(t *testing.T) {
	g := func(k int) *big.Int {
		row := pow10[k-kMin]
		v := new(big.Int).SetUint64(row[0])
		return v.Lsh(v, 63).Or(v, new(big.Int).SetUint64(row[1]))
	}
	hex := func(s string) *big.Int {
		v, ok := new(big.Int).SetString(s, 16)
		if !ok {
			t.Fatal(s)
		}
		return v
	}
	ten := big.NewInt(10)
	one := big.NewInt(1)
	pow := func(j int) *big.Int { return new(big.Int).Exp(ten, big.NewInt(int64(j)), nil) }
	want := map[int]*big.Int{
		0:   hex("20000000000000000000000000000001"),
		-1:  hex("28000000000000000000000000000001"),
		-38: new(big.Int).Add(new(big.Int).Mul(big.NewInt(5), pow(37)), one),
		1:   hex("33333333333333333333333333333334"),
	}
	// 10^324 = β·2^951 and 10^−292 = β·2^−1096 with β in [2^125, 2^126).
	want[kMin] = new(big.Int).Add(new(big.Int).Rsh(pow(324), 951), one)
	p := new(big.Int).Lsh(one, 1096)
	want[kMax] = p.Add(p.Quo(p, pow(292)), one)
	for k, w := range want {
		if got := g(k); got.Cmp(w) != 0 {
			t.Errorf("k = %d: g = %#x, want %#x", k, got, w)
		}
	}
	// Every row lies in (2^125, 2^126].
	lo, hi := new(big.Int).Lsh(one, 125), new(big.Int).Lsh(one, 126)
	for k := kMin; k <= kMax; k++ {
		if v := g(k); v.Cmp(lo) <= 0 || v.Cmp(hi) > 0 {
			t.Fatalf("k = %d: g = %#x out of (2^125, 2^126]", k, v)
		}
	}
}
