package core

//lint:hot

import (
	"fmt"

	"opmsim/internal/basis"
	"opmsim/internal/mat"
	"opmsim/internal/waveform"
)

// maxKronDim bounds the n·m size of the dense Kronecker system the generic
// solver builds; beyond this the specialized BPF solvers must be used.
const maxKronDim = 4096

// SolveGeneric simulates the DAE E·ẋ = A·x + B·u with an arbitrary basis by
// solving the Kronecker-product system of eq. (15). Because a general basis
// has a non-triangular operational matrix, the column-by-column trick does
// not apply; instead the better-conditioned integrated form
//
//	E·X = A·X·H + B·U·H  ⇔  (I_m ⊗ E − Hᵀ ⊗ A)·vec(X) = vec(B·U·H)
//
// is solved densely. This is the paper's §I scenario of switching bases
// (Walsh for trend-only views, Legendre for smooth inputs, ...) and is meant
// for small n·m.
func SolveGeneric(e, a, b *mat.Dense, u []waveform.Signal, bas basis.Basis) (*mat.Dense, error) {
	n := e.Rows()
	m := bas.Size()
	if e.Cols() != n || a.Rows() != n || a.Cols() != n || b.Rows() != n {
		return nil, fmt.Errorf("core: SolveGeneric dimension mismatch")
	}
	if len(u) != b.Cols() {
		return nil, fmt.Errorf("core: system has %d inputs, got %d signals", b.Cols(), len(u))
	}
	if n*m > maxKronDim {
		return nil, fmt.Errorf("core: SolveGeneric dense system %d×%d exceeds limit %d", n*m, n*m, maxKronDim)
	}
	h := bas.IntegrationMatrix()

	// U coefficients (p×m) and right-hand side G = B·U·H (n×m).
	p := b.Cols()
	uc := mat.NewDense(p, m)
	for c, sig := range u {
		copy(uc.Row(c), bas.Expand(sig))
	}
	g := mat.Mul(mat.Mul(b, uc), h)

	// K = I_m ⊗ E − Hᵀ ⊗ A over vec(X) (column-stacked).
	k := mat.NewDense(n*m, n*m)
	for bj := 0; bj < m; bj++ { // block column (column bj of X)
		hrow := h.Row(bj)
		for bi := 0; bi < m; bi++ { // block row
			hji := hrow[bi] // (Hᵀ)[bi][bj]
			for r := 0; r < n; r++ {
				er, ar := e.Row(r), a.Row(r)
				krow := k.Row(bi*n + r)[bj*n:]
				for c := 0; c < n; c++ {
					v := 0.0
					if bi == bj {
						v += er[c]
					}
					v -= hji * ar[c]
					if !isExactZero(v) {
						krow[c] = v
					}
				}
			}
		}
	}
	rhs := make([]float64, n*m)
	for i := 0; i < n; i++ {
		gr := g.Row(i)
		for j := 0; j < m; j++ {
			rhs[j*n+i] = gr[j]
		}
	}
	sol, err := mat.Solve(k, rhs)
	if err != nil {
		return nil, fmt.Errorf("core: SolveGeneric: %w", err)
	}
	x := mat.NewDense(n, m)
	for i := 0; i < n; i++ {
		xr := x.Row(i)
		for j := 0; j < m; j++ {
			xr[j] = sol[j*n+i]
		}
	}
	return x, nil
}
