package mat

//lint:hot

import "math"

// Dot returns the dot product of x and y. It panics on length mismatch.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("mat: Dot length mismatch")
	}
	s := 0.0
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// NormInf returns the maximum absolute entry of x.
func NormInf(x []float64) float64 {
	max := 0.0
	for _, v := range x {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// Axpy computes y += a*x in place. It panics on length mismatch.
func Axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic("mat: Axpy length mismatch")
	}
	for i, v := range x {
		y[i] += a * v
	}
}

// ScaleVec multiplies x by a in place.
func ScaleVec(a float64, x []float64) {
	for i := range x {
		x[i] *= a
	}
}
