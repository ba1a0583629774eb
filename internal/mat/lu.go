package mat

//lint:hot

import (
	"errors"
	"fmt"
	"math"

	"opmsim/internal/vecops"
)

// ErrSingular is returned when a factorization encounters an (numerically)
// exactly singular pivot.
var ErrSingular = errors.New("mat: matrix is singular")

// LU holds an LU factorization with partial (row) pivoting: P*A = L*U, where
// L is unit lower triangular and U is upper triangular, both packed into lu.
// It is the one dense LU of the solver: the dense fallback tier, the BBD
// interface (Schur complement) factor and the SMW capacitance matrix all
// factor and solve through it.
type LU struct {
	lu   *Dense
	piv  []int // piv[k] = row swapped into position k at step k
	sign int   // determinant sign from the permutation
}

// luPanelWidth is the panel width of the blocked kernels: the rank of each
// trailing update of the factorization, and the right-hand-side panel of
// SolveMatrixInto. Each factor row is loaded once per panel and folded into
// up to this many columns, and a panel of the working set (n·32 floats)
// stays cache-resident through the sweeps. Measured on the Table II pencils
// and the BBD interface sizes, 32 balances that reuse against the panel
// spilling L1 for large n; the batch engine adopts the same default for its
// scenario panels.
const luPanelWidth = 32

// LUFactor computes the LU factorization of a square matrix a with partial
// pivoting. The input is not modified.
func LUFactor(a *Dense) (*LU, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("mat: LU of non-square %dx%d matrix", a.rows, a.cols)
	}
	return LUFactorInPlace(a.Clone())
}

// LUFactorInPlace is LUFactor overwriting a with the packed factors: the
// result retains a, so the caller must not use it afterwards.
//
// The factorization is right-looking and blocked into panels of
// luPanelWidth columns, so the trailing update streams each row once per
// panel instead of once per column. Every row update goes through
// vecops.SubMul (one multiply-rounding and one subtract-rounding per element,
// never an FMA) and each element receives its updates in ascending pivot
// order, exactly as the unblocked column-by-column elimination applies them:
// the factors are bitwise-identical to that elimination on every
// architecture.
func LUFactorInPlace(a *Dense) (*LU, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("mat: LU of non-square %dx%d matrix", a.rows, a.cols)
	}
	n := a.rows
	f := &LU{lu: a, piv: make([]int, n), sign: 1}
	for j0 := 0; j0 < n; j0 += luPanelWidth {
		j1 := min(j0+luPanelWidth, n)
		// Factor the panel columns with partial pivoting; updates stay inside
		// the panel. Row swaps move whole rows, trailing columns included.
		for k := j0; k < j1; k++ {
			p, maxAbs := k, math.Abs(a.Row(k)[k])
			for i := k + 1; i < n; i++ {
				if v := math.Abs(a.Row(i)[k]); v > maxAbs {
					maxAbs, p = v, i
				}
			}
			if isExactZero(maxAbs) {
				return nil, fmt.Errorf("%w: zero pivot at column %d", ErrSingular, k)
			}
			f.piv[k] = p
			if p != k {
				rk, rp := a.Row(k), a.Row(p)
				for t := range rk {
					rk[t], rp[t] = rp[t], rk[t]
				}
				f.sign = -f.sign
			}
			rk := a.Row(k)
			inv := 1 / rk[k]
			for i := k + 1; i < n; i++ {
				ri := a.Row(i)
				lik := ri[k] * inv
				ri[k] = lik
				if isExactZero(lik) {
					continue
				}
				vecops.SubMul(ri[k+1:j1], rk[k+1:j1], lik)
			}
		}
		if j1 == n {
			break
		}
		// U12 = L11⁻¹ A12: forward substitution of the panel's unit lower
		// triangle across the trailing columns.
		for k := j0; k < j1; k++ {
			rk := a.Row(k)
			for i := k + 1; i < j1; i++ {
				ri := a.Row(i)
				if lik := ri[k]; !isExactZero(lik) {
					vecops.SubMul(ri[j1:], rk[j1:], lik)
				}
			}
		}
		// A22 −= L21·U12: each trailing row folds the whole panel in one pass,
		// so the row is loaded once per panel instead of once per column.
		for i := j1; i < n; i++ {
			ri := a.Row(i)
			for k := j0; k < j1; k++ {
				if lik := ri[k]; !isExactZero(lik) {
					vecops.SubMul(ri[j1:], a.Row(k)[j1:], lik)
				}
			}
		}
	}
	return f, nil
}

// N returns the factored dimension.
func (f *LU) N() int { return f.lu.rows }

// Solve solves A x = b in place: b is overwritten with the solution and also
// returned. len(b) must equal the factored dimension.
func (f *LU) Solve(b []float64) []float64 {
	n := f.lu.rows
	if len(b) != n {
		panic(fmt.Sprintf("mat: LU solve length %d != %d", len(b), n))
	}
	for k := 0; k < n; k++ {
		if p := f.piv[k]; p != k {
			b[k], b[p] = b[p], b[k]
		}
	}
	f.forward(b)
	// Back substitution with upper triangle.
	for i := n - 1; i >= 0; i-- {
		row := f.lu.Row(i)
		s := b[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * b[j]
		}
		b[i] = s / row[i]
	}
	return b
}

// forward runs the unit-lower-triangular substitution of Solve on x, four
// rows at a time: the rows share the prefix j < i, over which they
// accumulate together, and the small triangle among them follows. Every row
// still subtracts in ascending j, so the result is the one-row loop's
// s -= L[i][j]·x[j] bit for bit.
func (f *LU) forward(x []float64) {
	n, d := f.lu.rows, f.lu.data
	i := 1
	for ; i+4 <= n; i += 4 {
		xp := x[:i]
		r0 := d[i*n : i*n+i+3]
		r1 := d[(i+1)*n : (i+1)*n+i+3]
		r2 := d[(i+2)*n : (i+2)*n+i+3]
		r3 := d[(i+3)*n : (i+3)*n+i+3]
		s0, s1, s2, s3 := x[i], x[i+1], x[i+2], x[i+3]
		p0, p1, p2, p3 := r0[:len(xp)], r1[:len(xp)], r2[:len(xp)], r3[:len(xp)]
		for j, v := range xp {
			s0 -= p0[j] * v
			s1 -= p1[j] * v
			s2 -= p2[j] * v
			s3 -= p3[j] * v
		}
		s1 -= r1[i] * s0
		s2 -= r2[i] * s0
		s3 -= r3[i] * s0
		s2 -= r2[i+1] * s1
		s3 -= r3[i+1] * s1
		s3 -= r3[i+2] * s2
		x[i], x[i+1], x[i+2], x[i+3] = s0, s1, s2, s3
	}
	for ; i < n; i++ {
		ri := d[i*n : i*n+i]
		s := x[i]
		for j, v := range ri {
			s -= v * x[j]
		}
		x[i] = s
	}
}

// SolveTranspose solves Aᵀ x = b in place, like Solve. With P·A = L·U,
// Aᵀ = Uᵀ·Lᵀ·P, so the sweep is a forward substitution with Uᵀ, a backward
// substitution with the unit-diagonal Lᵀ, and the row interchanges
// un-applied in reverse.
func (f *LU) SolveTranspose(b []float64) []float64 {
	n, d := f.lu.rows, f.lu.data
	if len(b) != n {
		panic(fmt.Sprintf("mat: LU transpose solve length %d != %d", len(b), n))
	}
	for j := 0; j < n; j++ {
		s := b[j]
		for i := 0; i < j; i++ {
			s -= d[i*n+j] * b[i]
		}
		b[j] = s / d[j*n+j]
	}
	for j := n - 1; j >= 0; j-- {
		s := b[j]
		for i := j + 1; i < n; i++ {
			s -= d[i*n+j] * b[i]
		}
		b[j] = s
	}
	for k := n - 1; k >= 0; k-- {
		if p := f.piv[k]; p != k {
			b[k], b[p] = b[p], b[k]
		}
	}
	return b
}

// SolveMatrix solves A X = B column by column, returning X as a new matrix.
func (f *LU) SolveMatrix(b *Dense) *Dense {
	return f.SolveMatrixInto(NewDense(f.lu.rows, b.cols), b)
}

// SolveMatrixInto solves A X = B into the caller-owned x (same shape as b; x
// may be b itself for an in-place solve, but must not otherwise overlap it)
// and returns x. The right-hand sides are processed in panels of width
// luPanelWidth — blocked forward/back substitution in which each factor row
// serves the whole panel — but every column's floating-point operations run
// in exactly the order Solve uses on a single vector, so each column of the
// result is bitwise-identical to a per-column Solve loop. It allocates
// nothing.
func (f *LU) SolveMatrixInto(x, b *Dense) *Dense {
	n := f.lu.rows
	if b.rows != n {
		panic(fmt.Sprintf("mat: LU SolveMatrixInto rows %d != %d", b.rows, n))
	}
	if x.rows != n || x.cols != b.cols {
		panic(fmt.Sprintf("mat: LU SolveMatrixInto destination is %dx%d, want %dx%d", x.rows, x.cols, n, b.cols))
	}
	if x != b {
		copy(x.data, b.data)
	}
	for p0 := 0; p0 < x.cols; p0 += luPanelWidth {
		f.solvePanel(x, p0, min(p0+luPanelWidth, x.cols))
	}
	return x
}

// solvePanel runs the permutation and substitution sweeps of Solve on columns
// [p0, p1) of x in place. Per column the operation order matches Solve
// exactly; across the panel each factor row is reused p1−p0 times.
func (f *LU) solvePanel(x *Dense, p0, p1 int) {
	n := f.lu.rows
	// Apply permutation.
	for k := 0; k < n; k++ {
		if p := f.piv[k]; p != k {
			xk, xp := x.Row(k)[p0:p1], x.Row(p)[p0:p1]
			for t := range xk {
				xk[t], xp[t] = xp[t], xk[t]
			}
		}
	}
	// Forward substitution with unit lower triangle. Solve has no exact-zero
	// skip, so each row update maps directly onto the packed kernels.
	for i := 1; i < n; i++ {
		row := f.lu.Row(i)
		xi := x.Row(i)[p0:p1]
		for j := 0; j < i; j++ {
			vecops.SubMul(xi, x.Row(j)[p0:p1], row[j])
		}
	}
	// Back substitution with upper triangle.
	for i := n - 1; i >= 0; i-- {
		row := f.lu.Row(i)
		xi := x.Row(i)[p0:p1]
		for j := i + 1; j < n; j++ {
			vecops.SubMul(xi, x.Row(j)[p0:p1], row[j])
		}
		vecops.Div(xi, row[i])
	}
}

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	d := float64(f.sign)
	n := f.lu.rows
	for i := 0; i < n; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}

// Solve solves the dense square system A x = b, returning a fresh solution
// slice. It is a convenience wrapper around LUFactor + LU.Solve.
func Solve(a *Dense, b []float64) ([]float64, error) {
	f, err := LUFactor(a)
	if err != nil {
		return nil, err
	}
	x := make([]float64, len(b))
	copy(x, b)
	return f.Solve(x), nil
}

// Inverse returns A⁻¹ computed from an LU factorization.
func Inverse(a *Dense) (*Dense, error) {
	f, err := LUFactor(a)
	if err != nil {
		return nil, err
	}
	return f.SolveMatrix(Eye(a.rows)), nil
}
