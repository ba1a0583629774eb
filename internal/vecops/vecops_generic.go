//go:build !amd64 || purego

package vecops

// HasAVX reports whether the packed AVX kernels run; never on this build.
func HasAVX() bool { return false }

func subMul(dst, src []float64, c float64) { subMulGeneric(dst, src, c) }
func addMul(dst, src []float64, c float64) { addMulGeneric(dst, src, c) }
func div(dst []float64, c float64)         { divGeneric(dst, c) }

func subMulRows(data []float64, w int, rows []int, coef []float64, src []float64) {
	subMulRowsGeneric(data, w, rows, coef, src)
}
