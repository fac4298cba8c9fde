package obs

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// appendFloat appends a finite x as encoding/json writes a float64
// (DESIGN.md §19): the shortest decimal that reads back as x, and of
// those the closest to x, in 'f' form unless |x| < 1e-6 or |x| >= 1e21,
// and otherwise in 'e' form with no leading zero in the exponent (1.5e-7,
// 2e+21). −0 is written "-0". The bytes are those of
// strconv.AppendFloat(b, x, 'f' or 'e', -1, 64) under the same rules.
//
// The digits come from Schubfach (R. Giulietti, "The Schubfach way to
// render doubles", 2020) in integer arithmetic only: three round-to-odd
// products of the value's scaled bounds with a 126-bit power of ten
// pick the shortest decimal in the value's rounding interval.
func appendFloat(b []byte, x float64) []byte {
	u := math.Float64bits(x)
	if u>>63 != 0 {
		b = append(b, '-')
	}
	bq := int(u>>mantBits) & 0x7FF
	q, c := qMin, u&(1<<mantBits-1) // a subnormal is c·2^qMin
	if bq != 0 {
		q, c = bq-expBias, c|1<<mantBits
	} else if c == 0 {
		return append(b, '0')
	}
	d, e := toDecimal(q, c)
	return appendDecimal(b, d, e)
}

// The binary64 format, and the range of the decimal exponent k that
// toDecimal scales by.
const (
	mantBits = 52
	expBias  = 1075  // a normal value is (2^52 | mantissa) · 2^(bq − expBias)
	qMin     = -1074 // the exponent of every subnormal
	kMin     = -324  // flog10pow2(qMin)
	kMax     = 292   // flog10pow2(971), 971 the largest exponent
)

// toDecimal returns the decimal d·10^e that appendFloat writes for
// c·2^q. d may carry trailing zeros.
//
// It is Schubfach's toDecimal (the Java reference,
// jdk.internal.math.DoubleToDecimal) with two changes, because Java
// wants at least two digits where the shortest decimal may have one:
//   - Java tries the shorter candidates u' and w' only for s >= 100;
//     the shortest decimal needs them whenever s >= 10. Bit patterns
//     10, 12, ..., 20 are where the two differ: Java's guard writes
//     4.9e-323, strconv 5e-323. The rounding interval R_v is narrower
//     than 10^(k+1), the distance between u' and w', so at most one of
//     them lies in it.
//   - Java scales the significands 1 and 2 of the two smallest
//     subnormals by ten, to get its two digits out of them. Here they
//     take the common path, and TestAppendFloatMatchesStrconv checks
//     both, as it checks every subnormal below 2^20.
func toDecimal(q int, c uint64) (uint64, int) {
	out := c & 1 // an even significand's interval is closed
	cb := c << 2
	cbr := cb + 2
	var cbl uint64
	var k int
	if c != 1<<mantBits || q == qMin {
		cbl = cb - 2
		k = flog10pow2(q)
	} else {
		// At a power of two the gap below is half the gap above.
		cbl = cb - 1
		k = flog10threeQuartersPow2(q)
	}
	h := uint(q + flog2pow10(-k) + 2)
	g := &pow10[k-kMin]
	vb := rop(g[0], g[1], cb<<h)
	vbl := rop(g[0], g[1], cbl<<h)
	vbr := rop(g[0], g[1], cbr<<h)

	s := vb >> 2
	if s >= 10 {
		sp10 := s / 10 * 10
		tp10 := sp10 + 10
		upin := vbl+out <= sp10<<2
		wpin := tp10<<2+out <= vbr
		if upin {
			return sp10, k
		}
		if wpin {
			return tp10, k
		}
	}
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	if uin != win {
		if uin {
			return s, k
		}
		return t, k
	}
	// Both lie in R_v: take the one closer to v, the even one on a tie.
	if cmp := int64(vb - (s+t)<<1); cmp < 0 || cmp == 0 && s&1 == 0 {
		return s, k
	}
	return t, k
}

// rop returns the round-to-odd value of g·cp / 2^127, where g = g1·2^63
// + g0 is a table entry: the floor, with its lowest bit set when the
// discarded fraction is not zero.
func rop(g1, g0, cp uint64) uint64 {
	x1, _ := bits.Mul64(g0, cp)
	y1, y0 := bits.Mul64(g1, cp)
	z := y0>>1 + x1
	vbp := y1 + z>>63
	return vbp | (z&(1<<63-1)+(1<<63-1))>>63
}

// flog10pow2 returns floor(e·log10(2)), exact for every binary exponent
// (TestFloorLogs).
func flog10pow2(e int) int { return int(int64(e) * 661_971_961_083 >> 41) }

// flog10threeQuartersPow2 returns floor(log10(3/4 · 2^e)).
func flog10threeQuartersPow2(e int) int {
	return int((int64(e)*661_971_961_083 - 274_743_187_321) >> 41)
}

// flog2pow10 returns floor(e·log2(10)), exact for every k in
// [−kMax, −kMin].
func flog2pow10(e int) int { return int(int64(e) * 913_124_641_741 >> 38) }

// pow10 holds, for k in [kMin, kMax], g = floor(β) + 1 where
// 10^−k = β·2^r with 2^125 <= β < 2^126, split as {g >> 63, g mod 2^63}.
// It is built once, exactly, in big integers.
var pow10 = func() (tab [kMax - kMin + 1][2]uint64) {
	set := func(k int, beta *big.Int) {
		g := beta.Add(beta, big.NewInt(1))
		tab[k-kMin][1] = g.Uint64() & (1<<63 - 1)
		tab[k-kMin][0] = g.Rsh(g, 63).Uint64()
	}
	ten, p := big.NewInt(10), big.NewInt(1) // p = 10^j
	for j := 0; j <= kMax || j <= -kMin; j++ {
		n := p.BitLen()
		if j <= -kMin { // 10^−k = 10^j for k = −j
			beta := new(big.Int)
			if n <= 126 {
				beta.Lsh(p, uint(126-n))
			} else {
				beta.Rsh(p, uint(n-126))
			}
			set(-j, beta)
		}
		if 0 < j && j <= kMax { // 10^−k = 1/10^j for k = j
			beta := new(big.Int).Lsh(big.NewInt(1), uint(125+n))
			set(j, beta.Quo(beta, p))
		}
		p.Mul(p, ten)
	}
	return tab
}()

// appendDecimal appends d·10^e, 0 < d < 10^17, in encoding/json's
// form: the digits of d without its trailing zeros, placed by the
// exponent of the leading digit x10 = n − 1 + e ('e' form outside
// [−6, 21), 'f' form inside). For the shortest decimal of x, x10 < −6
// exactly when |x| < 1e-6 and x10 >= 21 exactly when |x| >= 1e21: 1e21
// is a double, the double nearest 1e-6 has it as its shortest decimal,
// and the rounding intervals of distinct doubles do not overlap.
func appendDecimal(b []byte, d uint64, e int) []byte {
	// d's seventeen digits, leading zeros included, sit in buf[7:24]:
	// the top digit, then two blocks of eight. The bytes before them
	// take a "0.0000" prefix or a shifted point.
	hi := d / 1e8
	top := hi / 1e8
	var buf [24]byte
	buf[7] = byte('0' + top)
	binary.LittleEndian.PutUint64(buf[8:], digits8(hi-top*1e8))
	binary.LittleEndian.PutUint64(buf[16:], digits8(d-hi*1e8))
	i, n := 7, len(buf)
	for buf[i] == '0' {
		i++
	}
	for buf[n-1] == '0' {
		n--
		e++
	}
	x10 := n - i - 1 + e
	switch {
	case x10 < -6 || x10 >= 21:
		b = append(b, buf[i])
		if n-i > 1 {
			b = append(b, '.')
			b = append(b, buf[i+1:n]...)
		}
		b = append(b, 'e')
		if x10 > 0 {
			b = append(b, '+')
		}
		return strconv.AppendInt(b, int64(x10), 10)
	case e >= 0:
		b = append(b, buf[i:n]...)
		return append(b, "00000000000000000000"[:e]...)
	case x10 >= 0:
		// Shift the integer digits left over the point's byte.
		copy(buf[i-1:], buf[i:i+x10+1])
		buf[i+x10] = '.'
		return append(b, buf[i-1:n]...)
	default:
		i -= copy(buf[i-1+x10:], "0.00000"[:1-x10])
		return append(b, buf[i:n]...)
	}
}

// digits8 returns the eight decimal digits of r < 10^8, leading zeros
// included, as characters one per byte with the first in the lowest, so
// a little-endian store writes them in order. It splits r into two
// halves of four digits, each half into two pairs and each pair into
// two digits, all lanes at once: x·5243 >> 19 is x/100 for x < 43699,
// and x·103 >> 10 is x/10 for x < 179.
func digits8(r uint64) uint64 {
	hi := r / 10000
	v := hi | (r-hi*10000)<<32
	q := v * 5243 >> 19 & 0x0000007F_0000007F
	v = q | (v-q*100)<<16
	q = v * 103 >> 10 & 0x000F000F_000F000F
	return q | (v-q*10)<<8 | 0x30303030_30303030
}
