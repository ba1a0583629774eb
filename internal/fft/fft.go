// Package fft implements the discrete Fourier transform used by the
// frequency-domain baseline of the paper (the "FFT-1"/"FFT-2" methods of
// Table I) and by the fast-convolution history engine of internal/core: an
// iterative radix-2 Cooley–Tukey transform for power-of-two lengths and
// Bluestein's chirp-z algorithm for arbitrary lengths — the paper's FFT-2
// variant uses 100 sampling points, which is not a power of two.
//
// The free functions below allocate their results and are convenient for
// one-shot use; repeated transforms of one size should go through the cached
// Plan API (PlanFor, Plan.Forward, Plan.RealForward, …), which precomputes
// the twiddle/bit-reversal/chirp tables once per size and reuses pooled
// scratch.
//
// Kernels: the radix-2 butterflies run one whole stage per call — a DIT or
// DIF stage loops over all its blocks, so the short-span stages pay no
// per-block call — plus Convolve's pruned first stage (hi[k] = lo[k]·w[k])
// and its fused middle block of four. On amd64 CPUs with AVX (the single
// gate is vecops.HasAVX) they run as packed kernels, two complex128 values
// per YMM register; everywhere else, and under the purego build tag, as the
// Go loops in plan.go. The AVX kernels perform exactly the IEEE operations
// of the Go loops, lane by lane and without fused multiply-adds (a complex
// product is VMULPD×2 + VADDSUBPD, equal to Go's bit for bit because IEEE
// addition commutes), so every transform has the same Float64bits on both
// paths; the Go loops are the fallback and the reference the tests hold the
// kernels to (kernels.go).
package fft

import (
	"fmt"
	"math"
	"math/cmplx"
)

// FFT returns the forward DFT of x:
// X[k] = Σ_n x[n]·exp(−2πi·kn/N). The input is not modified.
func FFT(x []complex128) []complex128 {
	return transform(x, false)
}

// IFFT returns the inverse DFT of x, normalized by 1/N so IFFT(FFT(x)) = x.
func IFFT(x []complex128) []complex128 {
	y := transform(x, true)
	n := complex(float64(len(y)), 0)
	for i := range y {
		y[i] /= n
	}
	return y
}

// FFTReal transforms a real sequence, returning the full complex spectrum.
func FFTReal(x []float64) []complex128 {
	c := make([]complex128, len(x))
	for i, v := range x {
		c[i] = complex(v, 0)
	}
	PlanFor(len(x)).transform(c, false)
	return c
}

// RFFT computes the DFT of a real sequence using the packed half-size
// complex transform when the length is even (roughly halving the work), and
// returns the full Hermitian spectrum. Odd lengths fall back to FFTReal.
func RFFT(x []float64) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	if n%2 != 0 || n == 2 {
		return FFTReal(x)
	}
	half := n / 2
	out := make([]complex128, n)
	PlanFor(n).RealForward(out[:half+1], x)
	for k := half + 1; k < n; k++ {
		out[k] = cmplx.Conj(out[n-k])
	}
	return out
}

// transform returns a transformed copy of x through the cached plan for its
// length; the inverse direction is unnormalized (IFFT divides by N).
func transform(x []complex128, inverse bool) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	out := make([]complex128, n)
	copy(out, x)
	PlanFor(n).transform(out, inverse)
	return out
}

// Freqs returns the angular frequencies ω_k (rad/s) associated with an
// N-point DFT over a record of duration T, in standard FFT ordering: the
// first ⌈N/2⌉ bins are non-negative frequencies k·2π/T, the remainder are the
// negative frequencies (k−N)·2π/T. These drive the per-frequency solves of
// the frequency-domain FDE baseline.
func Freqs(n int, T float64) ([]float64, error) {
	if n <= 0 || T <= 0 {
		return nil, fmt.Errorf("fft: Freqs requires positive n and T, got n=%d T=%g", n, T)
	}
	w := make([]float64, n)
	base := 2 * math.Pi / T
	for k := 0; k < n; k++ {
		kk := k
		if k > n/2 {
			kk = k - n
		}
		w[k] = float64(kk) * base
	}
	return w, nil
}
