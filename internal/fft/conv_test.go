package fft

import (
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"testing"
)

// refRadix2 is the reference power-of-two kernel with a single strided
// twiddle table: bit reversal, then decimation-in-time stages that read
// tw[k] = exp(−2πi·k/n) at stride n/size, conjugated for the inverse. The
// Float64bits tests below hold the plan's stage-contiguous tables to it.
func refRadix2(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		if j := int(bits.Reverse64(uint64(i)) >> shift); j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	tw := make([]complex128, n/2)
	for k := range tw {
		tw[k] = cmplx.Rect(1, -2*math.Pi*float64(k)/float64(n))
	}
	for size := 2; size <= n; size <<= 1 {
		half, stride := size>>1, n/size
		for start := 0; start < n; start += size {
			ti := 0
			for k := start; k < start+half; k++ {
				w := tw[ti]
				if inverse {
					w = complex(real(w), -imag(w))
				}
				a := x[k]
				b := x[k+half] * w
				x[k] = a + b
				x[k+half] = a - b
				ti += stride
			}
		}
	}
}

// refRealForward is the even-length RealForward with complex divisions in
// its unpack pass.
func refRealForward(p *Plan, dst []complex128, x []float64) {
	h := p.n / 2
	z := make([]complex128, h)
	for k := range z {
		z[k] = complex(x[2*k], x[2*k+1])
	}
	refRadix2(z, false)
	for k := 0; k <= h; k++ {
		zk := z[k%h]
		zc := cmplx.Conj(z[(h-k)%h])
		even := (zk + zc) / 2
		odd := (zk - zc) / complex(0, 2)
		dst[k] = even + p.rtw[k]*odd
	}
}

// refRealInverse is the even-length RealInverse with complex divisions in
// its repack pass.
func refRealInverse(p *Plan, dst []float64, spec []complex128) {
	h := p.n / 2
	z := make([]complex128, h)
	for k := 0; k < h; k++ {
		sk := spec[k]
		sc := cmplx.Conj(spec[h-k])
		even := (sk + sc) / 2
		odd := (sk - sc) / 2 * cmplx.Conj(p.rtw[k])
		z[k] = even + odd*complex(0, 1)
	}
	refRadix2(z, true)
	inv := 1 / float64(h)
	for k := 0; k < h; k++ {
		dst[2*k] = real(z[k]) * inv
		dst[2*k+1] = imag(z[k]) * inv
	}
}

// sameBits reports whether a and b have identical Float64bits, allowing
// only the sign of an exact zero to differ when zeroSign is set.
func sameBits(a, b float64, zeroSign bool) bool {
	ba, bb := math.Float64bits(a), math.Float64bits(b)
	return ba == bb || (zeroSign && ba<<1 == 0 && bb<<1 == 0)
}

func sameComplexBits(a, b complex128, zeroSign bool) bool {
	return sameBits(real(a), real(b), zeroSign) && sameBits(imag(a), imag(b), zeroSign)
}

// wideRange returns n finite values spread over the whole float64 range:
// ordinary normals, subnormals, and magnitudes up to 2^1000 — large, yet far
// enough below the overflow threshold that transform sums stay finite.
func wideRange(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		v := rng.NormFloat64()
		switch rng.Intn(4) {
		case 1:
			v *= math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1<<20))
		case 2:
			v = math.Ldexp(v, 980+rng.Intn(20))
		case 3:
			v = math.Ldexp(v, rng.Intn(400)-200)
		}
		x[i] = v
	}
	return x
}

// The halving helpers replace the complex divisions of the packed-real
// passes; for finite operands they must produce the divisions' bits, up to
// the sign of an exact zero.
func TestHalveMatchesComplexDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	vals := wideRange(rng, 4000)
	vals = append(vals, 0, math.Copysign(0, -1), math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-1023)
	for i := 0; i+1 < len(vals); i++ {
		c := complex(vals[i], vals[i+1])
		if got, want := halve(c), c/2; !sameComplexBits(got, want, true) {
			t.Fatalf("halve(%v) = %v, c/2 = %v", c, got, want)
		}
		if got, want := halveOverI(c), c/complex(0, 2); !sameComplexBits(got, want, true) {
			t.Fatalf("halveOverI(%v) = %v, c/2i = %v", c, got, want)
		}
	}
}

// Forward and Inverse keep the bits of the strided-twiddle kernel, and the
// packed real transforms keep the bits of their complex-division form (up
// to the sign of an exact zero), on random, subnormal and large inputs.
func TestPlanBitsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for n := 1; n <= 1<<12; n <<= 1 {
		p := PlanFor(n)
		for trial := 0; trial < 3; trial++ {
			re, im := randReal(rng, n), randReal(rng, n)
			if trial > 0 {
				re, im = wideRange(rng, n), wideRange(rng, n)
			}
			x := make([]complex128, n)
			for i := range x {
				x[i] = complex(re[i], im[i])
			}

			got := append([]complex128(nil), x...)
			want := append([]complex128(nil), x...)
			p.Forward(got)
			refRadix2(want, false)
			for k := range got {
				if !sameComplexBits(got[k], want[k], false) {
					t.Fatalf("Forward n=%d trial %d bin %d: %v, reference %v", n, trial, k, got[k], want[k])
				}
			}

			got = append(got[:0], x...)
			want = append(want[:0], x...)
			p.Inverse(got)
			refRadix2(want, true)
			inv := complex(1/float64(n), 0)
			for k := range want {
				want[k] *= inv
			}
			for k := range got {
				if !sameComplexBits(got[k], want[k], false) {
					t.Fatalf("Inverse n=%d trial %d sample %d: %v, reference %v", n, trial, k, got[k], want[k])
				}
			}

			if n < 2 {
				continue
			}
			spec := make([]complex128, n/2+1)
			refSpec := make([]complex128, n/2+1)
			p.RealForward(spec, re)
			refRealForward(p, refSpec, re)
			for k := range spec {
				if !sameComplexBits(spec[k], refSpec[k], true) {
					t.Fatalf("RealForward n=%d trial %d bin %d: %v, reference %v", n, trial, k, spec[k], refSpec[k])
				}
			}
			back := make([]float64, n)
			refBack := make([]float64, n)
			p.RealInverse(back, spec)
			refRealInverse(p, refBack, spec)
			for k := range back {
				if !sameBits(back[k], refBack[k], true) {
					t.Fatalf("RealInverse n=%d trial %d sample %d: %v, reference %v", n, trial, k, back[k], refBack[k])
				}
			}
		}
	}
}

// directConv is the O(N²) linear convolution of a and b.
func directConv(a, b []complex128) []complex128 {
	out := make([]complex128, len(a)+len(b)-1)
	for i, av := range a {
		for j, bv := range b {
			out[i+j] += av * bv
		}
	}
	return out
}

// fastConv convolves a and b (len(a)+len(b)−1 ≤ n) through the
// bit-reversal-free passes, then applies the 1/n normalization. With prune
// it runs the history tier's route — b's spectrum from ForwardDIF, then
// Convolve on a (len(a) ≤ n/2) — and hands Convolve NaNs in the upper half
// to prove those samples are never read. Without prune both operands go
// through the full DIF, then the pointwise product in bit-reversed order and
// the full DIT inverse.
func fastConv(n int, a, b []complex128, prune bool) []complex128 {
	p := PlanFor(n)
	za := make([]complex128, n)
	zb := make([]complex128, n)
	copy(za, a)
	copy(zb, b)
	p.ForwardDIF(zb)
	if prune {
		for i := n / 2; i < n; i++ {
			za[i] = cmplx.NaN()
		}
		p.Convolve(za, zb)
	} else {
		p.ForwardDIF(za)
		for k := range za {
			za[k] *= zb[k]
		}
		ditStages(za, p.inv, 1)
	}
	out := za[:len(a)+len(b)-1]
	inv := 1 / float64(n)
	for i, v := range out {
		out[i] = complex(real(v)*inv, imag(v)*inv)
	}
	return out
}

func norm2(x []complex128) float64 {
	s := 0.0
	for _, v := range x {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return math.Sqrt(s)
}

// checkConv fails unless the fast and direct convolutions of a and b agree
// to 1e-13·log₂n·‖a‖·‖b‖, the error scale of FFT convolution.
func checkConv(t testing.TB, n int, a, b []complex128, prune bool) {
	t.Helper()
	got := fastConv(n, a, b, prune)
	want := directConv(a, b)
	tol := 1e-13 * float64(bits.Len(uint(n))) * norm2(a) * norm2(b)
	for i := range want {
		if d := cmplx.Abs(got[i] - want[i]); !(d <= tol) {
			t.Fatalf("n=%d prune=%v |a|=%d |b|=%d out %d: fast %v, direct %v (|Δ|=%g > %g)",
				n, prune, len(a), len(b), i, got[i], want[i], d, tol)
		}
	}
}

// DIF → pointwise product → DIT is a linear convolution for every
// power-of-two length, unpruned from N = 2 and through Convolve's pruned
// first stage from its minimum N = 8.
func TestConvMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for n := 2; n <= 1<<13; n <<= 1 {
		if n >= 8 {
			// Pruned: a fills the lower half, b the rest of the span.
			a := randComplex(rng, n/2)
			b := randComplex(rng, n-len(a)+1)
			checkConv(t, n, a, b, true)
		}
		// Unpruned: a reaches into the upper half.
		la := n/2 + n/4
		a := randComplex(rng, la)
		b := randComplex(rng, n-la+1)
		checkConv(t, n, a, b, false)
	}
}

// ForwardDIF is the identity at length 1; both passes refuse Bluestein
// plans, whose spectra have no bit-reversed order, and Convolve refuses
// lengths below its fused middle pass.
func TestConvEdgeLengths(t *testing.T) {
	x := []complex128{3 - 4i}
	PlanFor(1).ForwardDIF(x)
	if !sameComplexBits(x[0], 3-4i, false) {
		t.Fatalf("length-1 ForwardDIF changed the sample: %v", x[0])
	}
	for _, f := range []func(){
		func() { PlanFor(12).ForwardDIF(make([]complex128, 12)) },
		func() { PlanFor(12).Convolve(make([]complex128, 12), make([]complex128, 12)) },
		func() { PlanFor(4).Convolve(make([]complex128, 4), make([]complex128, 4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("a convolution pass accepted an unsupported plan")
				}
			}()
			f()
		}()
	}
}

// FuzzConv cross-checks the fast convolution against the direct sum at
// random power-of-two lengths, operand lengths and magnitudes, and requires
// the AVX kernels and the Go loops to give it the same bits.
func FuzzConv(f *testing.F) {
	f.Add(int64(1), uint8(3), uint16(5), true)
	f.Add(int64(2), uint8(0), uint16(0), false)
	f.Add(int64(3), uint8(9), uint16(700), true)
	f.Add(int64(4), uint8(6), uint16(63), false)
	f.Fuzz(func(t *testing.T, seed int64, logN uint8, split uint16, prune bool) {
		n := 2 << (logN % 10)
		if prune && n < 8 {
			n = 8
		}
		rng := rand.New(rand.NewSource(seed))
		la := 1 + int(split)%(n/2)
		if !prune {
			la = 1 + int(split)%n
		}
		gen := func(k int) []complex128 {
			x := make([]complex128, k)
			s := math.Ldexp(1, rng.Intn(120)-60)
			for i := range x {
				x[i] = complex(rng.NormFloat64()*s, rng.NormFloat64()*s)
			}
			return x
		}
		a := gen(la)
		b := gen(n - la + 1)
		checkConv(t, n, a, b, prune)
		got := fastConv(n, a, b, prune)
		restore := SetSIMD(false)
		want := fastConv(n, a, b, prune)
		restore()
		for i := range want {
			if !sameComplexBits(got[i], want[i], false) {
				t.Fatalf("n=%d prune=%v out %d: AVX kernels %v, Go loops %v", n, prune, i, got[i], want[i])
			}
		}
	})
}

var benchSink complex128

// BenchmarkConvPair is the history tier's unit of work at a 2L = 8192
// segment: one pruned Convolve, two state rows per call.
func BenchmarkConvPair(b *testing.B) {
	const n = 8192
	p := PlanFor(n)
	rng := rand.New(rand.NewSource(34))
	ker := randComplex(rng, n)
	p.ForwardDIF(ker)
	seg := randComplex(rng, n/2)
	z := make([]complex128, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(z, seg)
		p.Convolve(z, ker)
	}
	benchSink = z[n/2]
}

// BenchmarkRealConv is the packed-real route over the same span, one state
// row per call: RealForward, a half-spectrum product, RealInverse.
func BenchmarkRealConv(b *testing.B) {
	const n = 8192
	p := PlanFor(n)
	rng := rand.New(rand.NewSource(35))
	ker := make([]complex128, n/2+1)
	p.RealForward(ker, randReal(rng, n))
	seg := randReal(rng, n)
	out := make([]float64, n)
	spec := make([]complex128, n/2+1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.RealForward(spec, seg)
		for k, kv := range ker {
			spec[k] *= kv
		}
		p.RealInverse(out, spec)
	}
	benchSink = complex(out[1], 0)
}

// BenchmarkForward is the bit-reversing complex transform the other Plan
// users run.
func BenchmarkForward(b *testing.B) {
	const n = 8192
	p := PlanFor(n)
	x := randComplex(rand.New(rand.NewSource(36)), n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(x)
	}
	benchSink = x[1]
}
