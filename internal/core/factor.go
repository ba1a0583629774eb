package core

//lint:hot

import (
	"fmt"
	"math"

	"opmsim/internal/mat"
	"opmsim/internal/sparse"
)

// condLimit is the 1-norm condition estimate above which a successful
// sparse factorization is still routed to the dense-LU-with-refinement tier:
// at κ₁ ≈ 1e14 a single LU solve can lose all but ~2 significant digits, while
// refinement against the exact sparse matrix recovers most of them.
const condLimit = 1e14

// DefaultSupernodalMinN is the pencil dimension at which Options.Supernodal
// mode 0 (auto) engages the supernodal/BBD tier. Below it the scalar sparse
// LU factors faster than the dissection + Schur assembly amortizes; the
// crossover was measured on the netgen power-grid family (see DESIGN.md §15).
const DefaultSupernodalMinN = 4096

// supernodalEngaged resolves the Options.Supernodal mode against the pencil
// dimension.
func supernodalEngaged(n int, opt *Options) bool {
	if opt.Supernodal != 0 {
		return opt.Supernodal > 0
	}
	return n >= DefaultSupernodalMinN
}

// pencilFactor is one leading-pencil factorization behind the tiered
// graceful-degradation chain of the hardened solver core:
//
//	sparse LU (AMD + threshold pivoting)
//	  → dense LU with one step of iterative refinement
//	    → Householder QR least-squares.
//
// The sparse tier is abandoned when factorization fails or when its 1-norm
// condition estimate exceeds condLimit; the dense tier when dense LU
// finds an exactly-zero pivot; QR is the backstop for numerically
// rank-deficient pencils, and its rank check is the final arbiter of
// ErrSingularPencil. Every tier decision is recorded in the SolveReport.
type pencilFactor struct {
	tier    Tier
	bbd     *sparse.BBD
	sp      *sparse.Factorization
	dense   *mat.LU
	qr      *mat.QR
	a       *sparse.CSR
	cond    float64
	scratch []float64 // dense-tier refinement residual, lazily sized
}

// factorCounts returns the nonzeros the factorization stores and the
// multiply-adds it took: the sparse tiers read both off their finished
// patterns, the dense LU and QR backstops take the dense counts.
func (pf *pencilFactor) factorCounts() (nnz, mulAdds int) {
	n := pf.a.R
	switch pf.tier {
	case TierSupernodal:
		return pf.bbd.NNZFactors(), pf.bbd.MulAdds()
	case TierSparseLU:
		return pf.sp.NNZFactors(), pf.sp.MulAdds()
	case TierQR:
		return n * n, 2 * n * n * n / 3
	}
	return n * n, n * n * n / 3
}

// factorPencil builds the chain for the pencil a serving column col (−1 for a
// factorization shared by all columns) at simulation time t.
func factorPencil(a *sparse.CSR, col int, t float64, opt *Options, rep *SolveReport) (*pencilFactor, error) {
	injected := func(tier Tier) bool {
		return opt.Fault != nil && opt.Fault.FactorFail != nil && opt.Fault.FactorFail(col, int(tier))
	}
	rep.Factorizations++
	pf := &pencilFactor{a: a}

	// Supernodal/BBD fast tier: tried first when engaged, abandoned silently
	// (never recorded as a Fallback — the scalar sparse LU below it upholds
	// the same accuracy contract) when the dissection degenerates, a diagonal
	// block is singular under block-confined pivoting, or the condition
	// estimate trips the limit.
	if supernodalEngaged(a.R, opt) && !injected(TierSupernodal) {
		if f, err := sparse.FactorBBD(a, sparse.BBDOptions{Workers: opt.Workers}); err == nil {
			cond := f.Cond1Est()
			rep.observeCond(cond)
			if cond <= condLimit && !math.IsNaN(cond) {
				pf.tier, pf.bbd, pf.cond = TierSupernodal, f, cond
				return pf, nil
			}
		}
	}

	var sparseErr error
	sparseCond := 0.0
	reason := ""
	if injected(TierSparseLU) {
		sparseErr = fmt.Errorf("injected sparse factorization failure")
		reason = sparseErr.Error()
	} else if f, err := sparse.Factor(a, sparse.Options{}); err != nil {
		sparseErr = err
		reason = err.Error()
	} else {
		cond := f.Cond1Est()
		rep.observeCond(cond)
		if cond <= condLimit && !math.IsNaN(cond) {
			pf.tier, pf.sp, pf.cond = TierSparseLU, f, cond
			return pf, nil
		}
		sparseCond = cond
		reason = fmt.Sprintf("cond₁≈%.3g exceeds limit %.3g", cond, condLimit)
		rep.Warnings = append(rep.Warnings, fmt.Sprintf("pencil for column %d: %s", col, reason))
	}

	if !injected(TierDenseLU) {
		if d, err := mat.LUFactorInPlace(a.ToDense()); err == nil {
			pf.tier, pf.dense, pf.cond = TierDenseLU, d, sparseCond
			rep.Fallbacks = append(rep.Fallbacks, Fallback{Column: col, Tier: TierDenseLU, Cond: sparseCond, Reason: reason})
			return pf, nil
		}
	}

	if !injected(TierQR) {
		if q, err := mat.QRFactor(a.ToDense()); err == nil && q.FullRank() {
			pf.tier, pf.qr, pf.cond = TierQR, q, sparseCond
			rep.Fallbacks = append(rep.Fallbacks, Fallback{Column: col, Tier: TierQR, Cond: sparseCond, Reason: reason})
			return pf, nil
		}
	}

	// Every tier refused the pencil. A sparse factorization that succeeded
	// but tripped the condition limit means the pencil is (numerically)
	// regular yet untrustworthy; a hard factorization failure all the way
	// down means it is singular.
	kind := ErrSingularPencil
	if sparseErr == nil && sparseCond > 0 {
		kind = ErrIllConditioned
	}
	d := diag(kind, col, t)
	d.Cond = sparseCond
	d.Cause = sparseErr
	return nil, d
}

// panelScratch owns the per-group working panels of solvePanelInto: the
// sparse tier's substitution/permutation/refinement panels and the dense
// tier's refinement residual. One scratch per concurrently-solving group.
type panelScratch struct {
	bbd   *sparse.BBDPanelScratch // supernodal/BBD tier
	sp    *sparse.PanelScratch    // sparse tier
	resid *mat.Dense              // dense tier refinement residual
}

// newPanelScratch sizes scratch for panels of k right-hand sides against
// this factorization's tier.
func (pf *pencilFactor) newPanelScratch(k int) *panelScratch {
	s := &panelScratch{}
	switch pf.tier {
	case TierSupernodal:
		s.bbd = pf.bbd.NewPanelScratch(k)
	case TierSparseLU:
		s.sp = pf.sp.NewPanelScratch(k)
	case TierDenseLU:
		s.resid = mat.NewDense(pf.a.R, k)
	}
	return s
}

// solvePanelInto solves the pencil for an n×K panel of right-hand sides
// (x, b same shape, non-aliasing; s from newPanelScratch(K)). Each column of
// x is bitwise-identical to a solveInto call on the matching column of b —
// the sparse and dense tiers run the same refinement sequence through the
// multi-RHS kernels, the QR backstop falls back to per-column least-squares
// solves — so a one-column panel goes straight to the scalar kernel, which
// skips the panel kernels' setup. Like solveInto it is unsafe for concurrent
// calls on one factorization.
func (pf *pencilFactor) solvePanelInto(x, b *mat.Dense, s *panelScratch) error {
	if b.Cols() == 1 {
		return pf.solveInto(x.Data(), b.Data())
	}
	switch pf.tier {
	case TierSupernodal:
		return pf.bbd.SolvePanelInto(x, b, s.bbd)
	case TierSparseLU:
		return pf.sp.SolvePanelInto(x, b, s.sp)
	case TierDenseLU:
		copy(x.Data(), b.Data())
		pf.dense.SolveMatrixInto(x, x)
		// Per-column refinement against the exact sparse matrix, mirroring
		// solveInto: r = b − A·x, x += A⁻¹·r.
		r := s.resid
		pf.a.MulPanelInto(r, x)
		rd, bd := r.Data(), b.Data()
		for i, v := range rd {
			rd[i] = bd[i] - v
		}
		pf.dense.SolveMatrixInto(r, r)
		xd := x.Data()
		for i, v := range rd {
			xd[i] += v
		}
		return nil
	case TierQR:
		n, w := b.Rows(), b.Cols()
		rhs := make([]float64, n)
		for t := 0; t < w; t++ {
			for i := 0; i < n; i++ {
				rhs[i] = b.Row(i)[t]
			}
			sol, err := pf.qr.SolveLeastSquares(rhs)
			if err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				x.Row(i)[t] = sol[i]
			}
		}
		return nil
	}
	return fmt.Errorf("core: unknown factorization tier %d", int(pf.tier))
}

// solveInto serves one column right-hand side through whichever tier the
// chain settled on, writing into a caller-owned dst (len(rhs), not aliasing
// rhs; rhs is not modified). The scratch lives on the factorization, which
// makes solveInto (like the sparse SolveInto beneath it) unsafe for
// concurrent calls; callers count the solve in SolveReport.TierSolves.
func (pf *pencilFactor) solveInto(dst, rhs []float64) error {
	switch pf.tier {
	case TierSupernodal:
		return pf.bbd.SolveInto(dst, rhs)
	case TierSparseLU:
		return pf.sp.SolveInto(dst, rhs)
	case TierDenseLU:
		copy(dst, rhs)
		pf.dense.Solve(dst)
		// One step of iterative refinement against the exact sparse matrix:
		// r = b − A·x, x += A⁻¹·r. This is what lets the dense tier keep the
		// golden 1e-12 waveform guarantees on ill-scaled circuit pencils.
		if pf.scratch == nil {
			pf.scratch = make([]float64, len(rhs))
		}
		r := pf.a.MulVec(dst, pf.scratch)
		for i := range r {
			r[i] = rhs[i] - r[i]
		}
		pf.dense.Solve(r)
		for i := range dst {
			dst[i] += r[i]
		}
		return nil
	case TierQR:
		x, err := pf.qr.SolveLeastSquares(rhs)
		if err != nil {
			return err
		}
		copy(dst, x)
		return nil
	}
	return fmt.Errorf("core: unknown factorization tier %d", int(pf.tier))
}
