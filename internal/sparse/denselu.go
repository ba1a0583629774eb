package sparse

import (
	"fmt"
	"math"

	"opmsim/internal/vecops"
)

// schurLU is the dense LU factorization serving the interface (Schur
// complement) system of the BBD factorization: right-looking, partial
// pivoting, blocked into panels so the trailing update streams each row once
// per panel instead of once per column, with every inner row update routed
// through vecops.SubMul (one multiply-rounding and one subtract-rounding per
// element — never an FMA — so results are identical on every architecture
// and independent of the worker count). The Schur complement of a dissected
// circuit pencil is small but dense (interface × interface), which is
// exactly the regime where the blocked dense sweep beats both the scalar
// sparse LU and the mat tier's unblocked kernels.
type schurLU struct {
	n   int
	a   []float64 // row-major packed factors: L (unit diag implicit) below, U on/above
	piv []int     // piv[k] = row swapped into position k at step k
}

// schurPanel is the factorization panel width: the rank of each trailing
// update. 32 matches the solver's panel-width convention (luPanelWidth,
// SolveBatch groups) and keeps a panel of rows L2-resident at interface
// sizes up to a few thousand.
const schurPanel = 32

// factorSchur factors the n×n row-major matrix d in place (d is retained and
// owned by the result).
func factorSchur(d []float64, n int) (*schurLU, error) {
	if len(d) != n*n {
		return nil, fmt.Errorf("sparse: schur factor of %d values for n=%d", len(d), n)
	}
	f := &schurLU{n: n, a: d, piv: make([]int, n)}
	row := func(i int) []float64 { return d[i*n : (i+1)*n] }
	for j0 := 0; j0 < n; j0 += schurPanel {
		j1 := j0 + schurPanel
		if j1 > n {
			j1 = n
		}
		// Factor the panel columns with partial pivoting; updates stay inside
		// the panel.
		for k := j0; k < j1; k++ {
			p, maxAbs := k, math.Abs(row(k)[k])
			for i := k + 1; i < n; i++ {
				if v := math.Abs(row(i)[k]); v > maxAbs {
					maxAbs, p = v, i
				}
			}
			if isExactZero(maxAbs) {
				return nil, fmt.Errorf("%w: schur pivot %d", ErrSingular, k)
			}
			f.piv[k] = p
			if p != k {
				rk, rp := row(k), row(p)
				for t := range rk {
					rk[t], rp[t] = rp[t], rk[t]
				}
			}
			rk := row(k)
			inv := 1 / rk[k]
			for i := k + 1; i < n; i++ {
				ri := row(i)
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
			rk := row(k)
			for i := k + 1; i < j1; i++ {
				ri := row(i)
				if lik := ri[k]; !isExactZero(lik) {
					vecops.SubMul(ri[j1:], rk[j1:], lik)
				}
			}
		}
		// A22 −= L21·U12: each trailing row folds the whole panel in one pass,
		// so the row is loaded once per panel instead of once per column.
		for i := j1; i < n; i++ {
			ri := row(i)
			for k := j0; k < j1; k++ {
				if lik := ri[k]; !isExactZero(lik) {
					vecops.SubMul(ri[j1:], row(k)[j1:], lik)
				}
			}
		}
	}
	return f, nil
}

// solveInto solves S·x = b into x (x must not alias b).
func (f *schurLU) solveInto(x, b []float64) {
	n := f.n
	copy(x, b)
	for k := 0; k < n; k++ {
		if p := f.piv[k]; p != k {
			x[k], x[p] = x[p], x[k]
		}
	}
	// Forward: unit lower triangle, four rows at a time. The rows share the
	// prefix j < i, over which they accumulate together; the small triangle
	// among them follows. Every row still subtracts in ascending j, so the
	// result is the one-row loop's bit for bit.
	i := 1
	for ; i+4 <= n; i += 4 {
		xp := x[:i]
		r0 := f.a[i*n : i*n+i+3]
		r1 := f.a[(i+1)*n : (i+1)*n+i+3]
		r2 := f.a[(i+2)*n : (i+2)*n+i+3]
		r3 := f.a[(i+3)*n : (i+3)*n+i+3]
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
		ri := f.a[i*n : i*n+i]
		s := x[i]
		for j, v := range ri {
			s -= v * x[j]
		}
		x[i] = s
	}
	// Backward: upper triangle.
	for i := n - 1; i >= 0; i-- {
		ri := f.a[i*n : (i+1)*n]
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= ri[j] * x[j]
		}
		x[i] = s / ri[i]
	}
}

// solveTransposeInto solves Sᵀ·x = b into x (x must not alias b). With
// P·S = L·U, Sᵀ = Uᵀ·Lᵀ·P, so the sweep is a forward substitution with Uᵀ, a
// backward substitution with the unit-diagonal Lᵀ, and the row interchanges
// un-applied in reverse.
func (f *schurLU) solveTransposeInto(x, b []float64) {
	n := f.n
	copy(x, b)
	for j := 0; j < n; j++ {
		s := x[j]
		for i := 0; i < j; i++ {
			s -= f.a[i*n+j] * x[i]
		}
		x[j] = s / f.a[j*n+j]
	}
	for j := n - 1; j >= 0; j-- {
		s := x[j]
		for i := j + 1; i < n; i++ {
			s -= f.a[i*n+j] * x[i]
		}
		x[j] = s
	}
	for k := n - 1; k >= 0; k-- {
		if p := f.piv[k]; p != k {
			x[k], x[p] = x[p], x[k]
		}
	}
}
