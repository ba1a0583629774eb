package serve

import (
	"math"
	"math/big"
	"math/bits"
)

// shortestDecimal returns the shortest decimal f·10^e that rounds back to
// the finite, positive float64 v, picking the one closest to v when several
// digit strings of that length do, and the even one on a tie: the digits
// strconv's shortest formatting ('f' or 'e' with precision -1) prints. f
// carries no trailing zeros. It is Giulietti's Schubfach algorithm ("The
// Schubfach way to render doubles", 2020): three 128-bit multiplications by
// a tabulated power of ten and no digit-by-digit loop, which makes it much
// cheaper than strconv's Ryū for the 16–17 digit values a solver produces.
// TestShortestDecimalMatchesStrconv holds it to strconv.
func shortestDecimal(v float64) (f uint64, e int) {
	b := math.Float64bits(v)
	t := b & (1<<52 - 1)
	bq := int(b>>52) & 0x7ff
	if bq == 0 {
		f, e = schubfach(-1074, t) // subnormal
	} else if mq, c := 1075-bq, 1<<52|t; 0 < mq && mq < 53 && c>>mq<<mq == c {
		f, e = c>>mq, 0 // an integer below 2^53 is its own shortest form
	} else {
		f, e = schubfach(-mq, c) // v = c·2^-mq
	}
	for f%10 == 0 {
		f /= 10
		e++
	}
	return f, e
}

// schubfach renders c·2^q, 0 < c < 2^53, as f·10^e.
func schubfach(q int, c uint64) (uint64, int) {
	out := c & 1 // the rounding interval is closed when c is even
	cb := c << 2
	cbr := cb + 2
	var cbl uint64
	var k int
	if c != 1<<52 || q == -1074 {
		cbl = cb - 2
		k = flog10pow2(q)
	} else {
		// At a power of two the gap below is half the gap above.
		cbl = cb - 1
		k = flog10ThreeQuartersPow2(q)
	}
	h := uint(q + flog2pow10(-k) + 2)
	g := &schubfachG[k-schubfachKMin]
	vb := roundOdd(g[0], g[1], cb<<h)
	vbl := roundOdd(g[0], g[1], cbl<<h)
	vbr := roundOdd(g[0], g[1], cbr<<h)
	s := vb >> 2
	if s >= 10 {
		// One digit shorter: the multiples of ten around s. (The interval
		// is under ten units wide, so at most one of them is in it, and no
		// shorter form can exist without being that one.)
		sp10 := s / 10 * 10
		tp10 := sp10 + 10
		upin := vbl+out <= sp10<<2
		wpin := tp10<<2+out <= vbr
		if upin != wpin {
			if upin {
				return sp10, k
			}
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
	// Both in: the closer one, the even one on a tie.
	cmp := int64(vb - (s+t)<<1)
	if cmp < 0 || cmp == 0 && s&1 == 0 {
		return s, k
	}
	return t, k
}

// roundOdd returns cp·g / 2^127 rounded to odd, g = g1·2^63 + g0.
func roundOdd(g1, g0, cp uint64) uint64 {
	x1, _ := bits.Mul64(g0, cp)
	y1, y0 := bits.Mul64(g1, cp)
	z := y0>>1 + x1
	vbp := y1 + z>>63
	return vbp | (z&(1<<63-1)+(1<<63-1))>>63
}

func flog10pow2(q int) int { return int(int64(q) * 661_971_961_083 >> 41) }

func flog10ThreeQuartersPow2(q int) int {
	return int((int64(q)*661_971_961_083 - 274_743_187_321) >> 41)
}

func flog2pow10(e int) int { return e * 217_706 >> 16 }

// The exponent range of the scaled powers of ten schubfach needs for
// float64.
const (
	schubfachKMin = -324
	schubfachKMax = 292
)

// schubfachG[k-schubfachKMin] holds g = floor(10^-k · 2^-r) + 1, with
// r = flog2pow10(-k) - 125 so that 2^125 ≤ g < 2^126, split into its high
// and low 63 bits.
var schubfachG = func() (tab [schubfachKMax - schubfachKMin + 1][2]uint64) {
	low63 := new(big.Int).SetUint64(1<<63 - 1)
	for k := schubfachKMin; k <= schubfachKMax; k++ {
		e := -k
		r := flog2pow10(e) - 125
		num, den := big.NewInt(1), big.NewInt(1)
		if e >= 0 {
			num.Exp(big.NewInt(10), big.NewInt(int64(e)), nil)
		} else {
			den.Exp(big.NewInt(10), big.NewInt(int64(-e)), nil)
		}
		if r >= 0 {
			den.Lsh(den, uint(r))
		} else {
			num.Lsh(num, uint(-r))
		}
		g := num.Quo(num, den)
		g.Add(g, big.NewInt(1))
		tab[k-schubfachKMin] = [2]uint64{new(big.Int).Rsh(g, 63).Uint64(), new(big.Int).And(g, low63).Uint64()}
	}
	return tab
}()
