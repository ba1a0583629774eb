//go:build amd64 && !purego

package vecops

// hasAVX gates the 4-wide VEX paths; every amd64 CPU has 2-wide SSE2, but
// dropping straight to the generic loops keeps exactly one SIMD tier to
// validate. CPUID bit 28 alone is not enough — the OS must have enabled
// YMM state saving (OSXSAVE + XGETBV), which cpuHasAVX checks too.
var hasAVX = cpuHasAVX()

// HasAVX reports whether the packed AVX kernels run on this CPU. It is the
// module's single CPU gate: other packages with AVX kernels (internal/fft)
// dispatch on it rather than probing the CPU themselves.
func HasAVX() bool { return hasAVX }

func cpuHasAVX() bool

func subMulAVX(dst, src *float64, n int, c float64)
func addMulAVX(dst, src *float64, n int, c float64)
func divAVX(dst *float64, n int, c float64)
func subMulRowsAVX(data []float64, w int, rows []int, coef []float64, src []float64)

func subMul(dst, src []float64, c float64) {
	if hasAVX {
		subMulAVX(&dst[0], &src[0], len(dst), c)
		return
	}
	subMulGeneric(dst, src, c)
}

func addMul(dst, src []float64, c float64) {
	if hasAVX {
		addMulAVX(&dst[0], &src[0], len(dst), c)
		return
	}
	addMulGeneric(dst, src, c)
}

func div(dst []float64, c float64) {
	if hasAVX {
		divAVX(&dst[0], len(dst), c)
		return
	}
	divGeneric(dst, c)
}

func subMulRows(data []float64, w int, rows []int, coef []float64, src []float64) {
	if hasAVX {
		subMulRowsAVX(data, w, rows, coef, src)
		return
	}
	subMulRowsGeneric(data, w, rows, coef, src)
}
