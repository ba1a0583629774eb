package mat

//lint:hot

import (
	"fmt"
	"math"
)

// IsUpperTriangular reports whether every element strictly below the diagonal
// is smaller than tol in magnitude.
func IsUpperTriangular(a *Dense, tol float64) bool {
	for i := 1; i < a.rows; i++ {
		row := a.Row(i)
		for j := 0; j < i && j < a.cols; j++ {
			if math.Abs(row[j]) > tol {
				return false
			}
		}
	}
	return true
}

// SolveUpper solves U x = b for an upper triangular U, overwriting b.
func SolveUpper(u *Dense, b []float64) ([]float64, error) {
	n := u.rows
	if u.cols != n || len(b) != n {
		return nil, fmt.Errorf("mat: SolveUpper shape mismatch")
	}
	for i := n - 1; i >= 0; i-- {
		row := u.Row(i)
		s := b[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * b[j]
		}
		if isExactZero(row[i]) {
			return nil, fmt.Errorf("%w: zero diagonal at %d", ErrSingular, i)
		}
		b[i] = s / row[i]
	}
	return b, nil
}

// TriPow computes Tᵅ for an upper triangular matrix T with positive, pairwise
// distinct diagonal entries, using the Parlett recurrence:
//
//	F_ii = T_ii^α
//	F_ij = (T_ij (F_ii − F_jj) + Σ_{k=i+1}^{j−1} (F_ik T_kj − T_ik F_kj)) / (T_ii − T_jj)
//
// This is the numerically robust form of the "eigendecomposition-based
// method" the paper prescribes for the adaptive-step fractional operational
// matrix D̃ᵅ (eq. 25), whose diagonal 2/h_i is distinct whenever no two time
// steps coincide. TriPow returns an error if T is not upper triangular, has a
// non-positive diagonal entry, or has two equal (or nearly equal) diagonal
// entries, which would make the recurrence unstable.
func TriPow(t *Dense, alpha float64) (*Dense, error) {
	n := t.rows
	if t.cols != n {
		return nil, fmt.Errorf("mat: TriPow of non-square %dx%d matrix", t.rows, t.cols)
	}
	if !IsUpperTriangular(t, 0) {
		return nil, fmt.Errorf("mat: TriPow requires an upper triangular matrix")
	}
	scale := t.MaxAbs()
	diag := make([]float64, n)
	for i := 0; i < n; i++ {
		diag[i] = t.At(i, i)
	}
	for i := 0; i < n; i++ {
		if diag[i] <= 0 {
			return nil, fmt.Errorf("mat: TriPow requires positive diagonal, got %g at %d", diag[i], i)
		}
		for j := i + 1; j < n; j++ {
			if math.Abs(diag[i]-diag[j]) <= 1e-12*scale {
				return nil, fmt.Errorf("mat: TriPow requires distinct diagonal entries (entries %d and %d coincide)", i, j)
			}
		}
	}
	f := NewDense(n, n)
	for i := 0; i < n; i++ {
		f.Set(i, i, math.Pow(diag[i], alpha))
	}
	// Fill superdiagonals outward.
	for d := 1; d < n; d++ {
		for i := 0; i+d < n; i++ {
			j := i + d
			ti, fi := t.Row(i), f.Row(i)
			num := ti[j] * (fi[i] - f.Row(j)[j])
			for k := i + 1; k < j; k++ {
				//lint:ignore atset the Parlett recurrence walks column j while row i is in view; per-element access is the algorithm
				num += fi[k]*t.At(k, j) - ti[k]*f.At(k, j)
			}
			fi[j] = num / (diag[i] - diag[j])
		}
	}
	return f, nil
}

// MatPowInt computes Aᵏ for integer k ≥ 0 by repeated squaring.
func MatPowInt(a *Dense, k int) *Dense {
	if a.rows != a.cols {
		panic("mat: MatPowInt of non-square matrix")
	}
	if k < 0 {
		panic("mat: MatPowInt negative exponent")
	}
	result := Eye(a.rows)
	base := a.Clone()
	for k > 0 {
		if k&1 == 1 {
			result = Mul(result, base)
		}
		base = Mul(base, base)
		k >>= 1
	}
	return result
}
