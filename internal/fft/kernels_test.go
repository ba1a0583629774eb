package fft

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// bitsInputs returns the input families the kernel tests run at length n:
// random normals, a mix of signed exact zeros, values scaled by 2^±500, and
// mixed magnitudes (subnormals to 2^1000, wideRange).
func bitsInputs(rng *rand.Rand, n int) map[string][]complex128 {
	mk := func(f func() float64) []complex128 {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(f(), f())
		}
		return x
	}
	zeros := []float64{0, math.Copysign(0, -1), 1, -1}
	re, im := wideRange(rng, n), wideRange(rng, n)
	mixed := make([]complex128, n)
	for i := range mixed {
		mixed[i] = complex(re[i], im[i])
	}
	return map[string][]complex128{
		"random": mk(rng.NormFloat64),
		"zeros":  mk(func() float64 { return zeros[rng.Intn(len(zeros))] }),
		"2^+500": mk(func() float64 { return math.Ldexp(rng.NormFloat64(), 500) }),
		"2^-500": mk(func() float64 { return math.Ldexp(rng.NormFloat64(), -500) }),
		"mixed":  mixed,
	}
}

// bothKernels runs f once on the AVX kernels and once on the Go loops, each
// on its own copy of x, and fails unless the outputs have the same bits.
func bothKernels(t testing.TB, what string, x []complex128, f func([]complex128) []float64) {
	t.Helper()
	restore := SetSIMD(true)
	a := f(append([]complex128(nil), x...))
	SetSIMD(false)
	b := f(append([]complex128(nil), x...))
	restore()
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: value %d: AVX %v (%#x), Go %v (%#x)", what, i, a[i],
				math.Float64bits(a[i]), b[i], math.Float64bits(b[i]))
		}
	}
}

// flat views a complex slice as its float64 parts, for bit comparisons.
func flat(z []complex128) []float64 {
	out := make([]float64, 0, 2*len(z))
	for _, v := range z {
		out = append(out, real(v), imag(v))
	}
	return out
}

// The AVX kernels and the Go loops give Float64bits-identical results for
// every transform that runs on them, at every power of two from 8 to 2¹⁶.
// On a build or CPU without AVX both runs take the Go loops.
func TestKernelsBitwise(t *testing.T) {
	if !hasSIMD {
		t.Log("no AVX kernels on this build or CPU: both runs take the Go loops")
	}
	rng := rand.New(rand.NewSource(41))
	for n := 8; n <= 1<<16; n <<= 1 {
		p := PlanFor(n)
		spec := randComplex(rng, n)
		p.ForwardDIF(spec)
		for name, x := range bitsInputs(rng, n) {
			tag := func(op string) string { return op + " n=" + strconv.Itoa(n) + " " + name }
			bothKernels(t, tag("Convolve"), x, func(z []complex128) []float64 {
				p.Convolve(z, spec)
				return flat(z)
			})
			bothKernels(t, tag("Forward"), x, func(z []complex128) []float64 {
				p.Forward(z)
				return flat(z)
			})
			bothKernels(t, tag("Inverse"), x, func(z []complex128) []float64 {
				p.Inverse(z)
				return flat(z)
			})
			bothKernels(t, tag("ForwardDIF"), x, func(z []complex128) []float64 {
				p.ForwardDIF(z)
				return flat(z)
			})
			bothKernels(t, tag("RealForward"), x, func(z []complex128) []float64 {
				re := make([]float64, n)
				for i, v := range z {
					re[i] = real(v)
				}
				dst := make([]complex128, n/2+1)
				p.RealForward(dst, re)
				return flat(dst)
			})
			bothKernels(t, tag("RealInverse"), x, func(z []complex128) []float64 {
				dst := make([]float64, n)
				p.RealInverse(dst, z[:n/2+1])
				return dst
			})
			bothKernels(t, tag("ScaleParts"), x, func(z []complex128) []float64 {
				ScaleParts(z[:n-1], 0x1p-37, 0x1p41)
				return flat(z)
			})
			bothKernels(t, tag("AddReal/AddImag"), x, func(z []complex128) []float64 {
				d0, d1 := wideRange(rand.New(rand.NewSource(int64(n))), n-3), make([]float64, n-1)
				AddReal(d0, z, 0x1p-3)
				AddImag(d1, z[1:], -3)
				return append(d0, d1...)
			})
		}
	}
}
