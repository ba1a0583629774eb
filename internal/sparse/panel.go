package sparse

//lint:hot

import (
	"fmt"

	"opmsim/internal/mat"
	"opmsim/internal/vecops"
)

// Multi-RHS ("panel") kernels. A panel is an n×K row-major mat.Dense whose
// columns are K independent right-hand sides or solutions: row i holds the K
// values of equation i contiguously, so the K-wide inner loops below stream
// one cache line per factor entry instead of re-walking the factor's index
// arrays once per right-hand side. That index-stream amortization is where
// the batch engine's single-core win comes from: the Gilbert–Peierls factors
// are irregular enough that a one-vector solve is bound on li/lx/ui/ux
// traffic, and a K-wide panel pays for it once.
//
// Determinism contract: every kernel in this file performs, for each column
// of the panel, exactly the floating-point operations of its one-vector
// counterpart in exactly the same order — including the exact-zero skips,
// which are applied per column. For MulPanelInto/MulPanelAdd that is
// MulVec/MulVecAdd. For solvePanel it is the column sweeps themselves: a
// width-1 panel solve is the reference substitution, and the row plan behind
// the vector SolveInto (rowPlan in lu.go) reproduces it bit for bit. Panel
// solves are therefore bitwise-identical to column-by-column solves, which is
// what lets SolveBatch guarantee bitwise equality with sequential Solve
// calls.

// solvePanel solves W·X = B for a panel of right-hand sides, W = A(ord, ord)
// being the symmetrically pre-ordered matrix f factors, with b and x in A's
// coordinates: x, b and work are n×K with the same K, and x must not alias
// b or work. b's rows are gathered through ord into work, and the backward
// sweep runs in place in x, pivot position j on row ord[j], with
// ordUI = ord∘ui as its update rows — so the permutation sandwich costs one
// gather and no extra copies, and every row receives the same operations in
// the same order. A nil ord is the identity (ordUI = ui). The work panel is
// caller-owned scratch, which keeps the kernel safe for concurrent use on
// disjoint panels of one shared factorization.
func (f *LU) solvePanel(x, b, work *mat.Dense, ord, ordUI []int) {
	if ord == nil {
		copy(work.Data(), b.Data())
	} else {
		for newI, oldI := range ord {
			copy(work.Row(newI), b.Row(oldI))
		}
	}
	w := b.Cols()
	// Forward: L y = P b, processed column by column in pivot order. The
	// exact-zero skip is hoisted out of the per-entry loop: one scan of the
	// source row picks the all-skip, fused-SIMD, or per-element path, and
	// each path performs per column exactly the operations of the
	// per-element path's skip loop. The fused path hands the column's whole update list to one
	// SubMulRows call, so the factor's index stream is consumed inside the
	// kernel instead of through per-nonzero Row() slicing.
	for j := 0; j < f.n; j++ {
		yj := work.Row(f.perm[j])
		switch panelZeros(yj) {
		case len(yj): // every column's source is zero: scalar skips all updates
		case 0:
			vecops.SubMulRows(work.Data(), w, f.li[f.lp[j]:f.lp[j+1]], f.lx[f.lp[j]:f.lp[j+1]], yj)
		default:
			for q := f.lp[j]; q < f.lp[j+1]; q++ {
				dst := work.Row(f.li[q])
				lx := f.lx[q]
				for t, v := range yj {
					if !isExactZero(v) {
						dst[t] -= lx * v
					}
				}
			}
		}
	}
	for j := 0; j < f.n; j++ {
		r := j
		if ord != nil {
			r = ord[j]
		}
		copy(x.Row(r), work.Row(f.perm[j]))
	}
	// Backward: U x = y, U stored by column with pivot-position rows.
	for j := f.n - 1; j >= 0; j-- {
		r := j
		if ord != nil {
			r = ord[j]
		}
		xj := x.Row(r)
		vecops.Div(xj, f.udiag[j])
		switch panelZeros(xj) {
		case len(xj):
		case 0:
			vecops.SubMulRows(x.Data(), w, ordUI[f.up[j]:f.up[j+1]], f.ux[f.up[j]:f.up[j+1]], xj)
		default:
			for q := f.up[j]; q < f.up[j+1]; q++ {
				dst := x.Row(ordUI[q])
				ux := f.ux[q]
				for t, v := range xj {
					if !isExactZero(v) {
						dst[t] -= ux * v
					}
				}
			}
		}
	}
}

// panelZeros counts the exact zeros in one panel row, deciding which
// substitution path applies. Circuit solves see two regimes almost
// exclusively: leading all-zero rows before the inputs switch on, and fully
// nonzero rows afterwards — the mixed per-element path is the rare
// transition case.
func panelZeros(row []float64) int {
	zeros := 0
	for _, v := range row {
		if isExactZero(v) {
			zeros++
		}
	}
	return zeros
}

// PanelScratch owns the working panels one goroutine needs to run
// Factorization.SolvePanelInto: the substitution work panel and the
// refinement residual/correction pair. Scratch is bound to a panel width;
// allocate one per concurrent solving task.
type PanelScratch struct {
	k                 int
	work              *mat.Dense
	residual, correct *mat.Dense // refinement panels (refine runs only)
}

// NewPanelScratch returns scratch for SolvePanelInto calls on panels of
// exactly k right-hand sides.
func (f *Factorization) NewPanelScratch(k int) *PanelScratch {
	s := &PanelScratch{k: k, work: mat.NewDense(f.lu.n, k)}
	if f.refine {
		s.residual = mat.NewDense(f.lu.n, k)
		s.correct = mat.NewDense(f.lu.n, k)
	}
	return s
}

// SolvePanelInto solves A·X = B for an n×K panel without modifying b, through
// the column sweeps and the optional refinement step in the operation order
// of the one-vector SolveInto — each column of x is bitwise-identical to a
// SolveInto call on the matching column of b. s must come from NewPanelScratch(K) on this
// factorization (or a Share() sibling); concurrent calls need distinct
// scratch.
func (f *Factorization) SolvePanelInto(x, b *mat.Dense, s *PanelScratch) error {
	if err := checkPanel(f.lu.n, x, b, s.work); err != nil {
		return fmt.Errorf("sparse: SolvePanelInto: %w", err)
	}
	if x.Cols() != s.k {
		return fmt.Errorf("sparse: SolvePanelInto scratch is for %d right-hand sides, got %d", s.k, x.Cols())
	}
	f.lu.solvePanel(x, b, s.work, f.ord, f.ordUI)
	if f.refine {
		// One refinement step per column: r = b − A·x, x += A⁻¹ r.
		f.a.MulPanelInto(s.residual, x)
		rd, bd := s.residual.Data(), b.Data()
		for i, v := range rd {
			rd[i] = bd[i] - v
		}
		f.lu.solvePanel(s.correct, s.residual, s.work, f.ord, f.ordUI)
		xd, cd := x.Data(), s.correct.Data()
		for i, v := range cd {
			xd[i] += v
		}
	}
	return nil
}

// MulPanelInto computes dst = A·X for an n-column panel X (dst and X are
// a.R×K and a.C×K; dst must not alias X). Each column's accumulation runs in
// ascending nonzero order, matching MulVec on that column bit for bit.
func (a *CSR) MulPanelInto(dst, x *mat.Dense) {
	if x.Rows() != a.C || dst.Rows() != a.R || dst.Cols() != x.Cols() {
		panic(fmt.Sprintf("sparse: MulPanelInto dims %dx%d = %dx%d · %dx%d",
			dst.Rows(), dst.Cols(), a.R, a.C, x.Rows(), x.Cols()))
	}
	for i := 0; i < a.R; i++ {
		di := dst.Row(i)
		for t := range di {
			di[t] = 0
		}
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			vecops.AddMul(di, x.Row(a.ColIdx[p]), a.Val[p])
		}
	}
}

// MulPanelAdd accumulates dst += s·(A·X) for a K-column panel X (dst is
// a.R×K, X is a.C×K), mirroring MulVecAdd column by column: each output row
// first accumulates its products in ascending nonzero order into acc, then
// folds s·acc into dst — per column exactly the operations (and roundings)
// MulVecAdd performs. acc is caller-owned scratch of length K. A one-column
// panel runs MulVecAdd itself on the backing slices, which skips the
// per-row lane setup.
func (a *CSR) MulPanelAdd(s float64, x, dst *mat.Dense, acc []float64) {
	if x.Rows() != a.C || dst.Rows() != a.R || dst.Cols() != x.Cols() || len(acc) != x.Cols() {
		panic(fmt.Sprintf("sparse: MulPanelAdd dims %dx%d += %dx%d · %dx%d (acc %d)",
			dst.Rows(), dst.Cols(), a.R, a.C, x.Rows(), x.Cols(), len(acc)))
	}
	if len(acc) == 1 {
		a.MulVecAdd(s, x.Data(), dst.Data())
		return
	}
	for i := 0; i < a.R; i++ {
		// Same structural empty-row skip as MulVecAdd (see there) — the pair
		// must stay in lockstep for the bitwise contract.
		if a.RowPtr[i] == a.RowPtr[i+1] {
			continue
		}
		for t := range acc {
			acc[t] = 0
		}
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			vecops.AddMul(acc, x.Row(a.ColIdx[p]), a.Val[p])
		}
		vecops.AddMul(dst.Row(i), acc, s)
	}
}

// checkPanel validates the common shape contract of the panel kernels.
func checkPanel(n int, x, b, work *mat.Dense) error {
	if x.Rows() != n || b.Rows() != n || work.Rows() != n {
		return fmt.Errorf("panel rows %d,%d,%d != %d", x.Rows(), b.Rows(), work.Rows(), n)
	}
	if x.Cols() != b.Cols() || work.Cols() != b.Cols() {
		return fmt.Errorf("panel widths %d,%d,%d differ", x.Cols(), b.Cols(), work.Cols())
	}
	if x == b || x == work || b == work {
		return fmt.Errorf("panels must not alias")
	}
	return nil
}
