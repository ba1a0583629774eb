package fft

// The butterfly loops behind Plan.Convolve and the radix-2 transforms run on
// one of two kernel sets: the portable Go loops in plan.go, or on amd64 CPUs
// with AVX (vecops.HasAVX, the module's single CPU gate) the packed kernels
// in kernels_amd64.s. The AVX kernels are not a faster approximation: each
// performs exactly the IEEE operations of the Go loop it replaces, two
// complex128 values per YMM register, lanes never mixing. A complex product
// x·w is VMULPD×2 + VADDSUBPD — re = xr·wr − xi·wi, im = xi·wr + xr·wi —
// which equals Go's xr·wi + xi·wr bit for bit because IEEE addition
// commutes; no fused multiply-add is used, and the ±i rotations of the fused
// middle pass are a lane swap plus a sign flip, as in Go. So every transform
// and every FFT-tier history result has the same Float64bits on both sets
// (NaN payloads aside), and the Go loops serve as both the fallback and the
// reference the tests hold the AVX kernels to.

// simd selects the AVX kernels; it starts as hasSIMD (the CPU gate) and
// changes only through SetSIMD.
var simd = hasSIMD

// SetSIMD routes the butterfly kernels to the AVX set (on, where the CPU has
// AVX) or to the portable Go loops (off), and returns a function restoring
// the previous routing. It exists for the tests that run both sets on one
// input and require the same bits; it must not be called while transforms
// are running.
func SetSIMD(on bool) (restore func()) {
	old := simd
	simd = on && hasSIMD
	return func() { simd = old }
}

// ScaleParts multiplies the real parts of z by sr and the imaginary parts by
// si: z[p] = complex(real(z[p])·sr, imag(z[p])·si).
func ScaleParts(z []complex128, sr, si float64) {
	if len(z) > 0 {
		scaleParts(z, sr, si)
	}
}

// AddReal adds real(z[r])·u into dst[r] for every r < len(dst); z must be at
// least as long as dst.
func AddReal(dst []float64, z []complex128, u float64) {
	if len(dst) > 0 {
		_ = z[len(dst)-1]
		addPart(dst, z, u, false)
	}
}

// AddImag adds imag(z[r])·u into dst[r] for every r < len(dst); z must be at
// least as long as dst.
func AddImag(dst []float64, z []complex128, u float64) {
	if len(dst) > 0 {
		_ = z[len(dst)-1]
		addPart(dst, z, u, true)
	}
}
