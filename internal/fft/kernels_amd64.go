//go:build amd64 && !purego

package fft

import "opmsim/internal/vecops"

// hasSIMD is the CPU gate for the AVX kernels: vecops' CPUID + XGETBV check.
var hasSIMD = vecops.HasAVX()

// The AVX kernels (kernels_amd64.s). Lengths are the Go loops' own: x is a
// whole number of 2h-blocks, w holds at least h twiddles, spec and a at
// least len(x) and len(dst) values.

//go:noescape
func ditStageAVX(x, w []complex128, h int)

//go:noescape
func difStageAVX(x, w []complex128, h int)

//go:noescape
func mulAVX(dst, a, w []complex128)

//go:noescape
func convMiddleAVX(x, spec []complex128)

//go:noescape
func scalePartsAVX(z []complex128, sr, si float64)

//go:noescape
func addPartAVX(dst []float64, z []complex128, u float64, part int)

func ditStage(x, w []complex128, h int) {
	if simd {
		_ = w[h-1]
		ditStageAVX(x, w, h)
		return
	}
	ditStageGo(x, w, h)
}

func difStage(x, w []complex128, h int) {
	if simd {
		_ = w[h-1]
		difStageAVX(x, w, h)
		return
	}
	difStageGo(x, w, h)
}

func mul(dst, a, w []complex128) {
	if simd {
		a, w = a[:len(dst)], w[:len(dst)]
		mulAVX(dst, a, w)
		return
	}
	mulGo(dst, a, w)
}

func convMiddle(x, spec []complex128) {
	if simd {
		spec = spec[:len(x)]
		convMiddleAVX(x, spec)
		return
	}
	convMiddleGo(x, spec)
}

func scaleParts(z []complex128, sr, si float64) {
	if simd {
		scalePartsAVX(z, sr, si)
		return
	}
	scalePartsGo(z, sr, si)
}

func addPart(dst []float64, z []complex128, u float64, imag bool) {
	switch {
	case simd && imag:
		addPartAVX(dst, z, u, 1)
	case simd:
		addPartAVX(dst, z, u, 0)
	case imag:
		addImagGo(dst, z, u)
	default:
		addRealGo(dst, z, u)
	}
}
