package core

import (
	"fmt"

	"opmsim/internal/mat"
	"opmsim/internal/sparse"
	"opmsim/internal/vecops"
)

// The Sherman–Morrison–Woodbury "UpdatedSolve" tier of the factor cache: when
// a scenario perturbs the shared leading pencil M by a low-rank stamp delta
// Σ δ_i·u_i·v_iᵀ = U·Vᵀ, solves against the perturbed pencil reuse the cached
// factorization of M through the capacitance-matrix formula
//
//	(M + U·Vᵀ)⁻¹·b = y − W·C⁻¹·Vᵀ·y,   y = M⁻¹·b,
//	W = M⁻¹·U (one r-wide panel solve at setup),
//	C = I_r + Vᵀ·W (r×r, dense-LU factored once).
//
// Per column the extra cost over the base solve is r sparse-gather inner
// products (Vᵀy), one r×r triangular solve, and r n-length AddMul lanes — all
// through the vecops kernels — versus a full refactorization on the fallback
// path. The crossover between the two lives in parambatch.go.
//
// Numerics: the correction is backward-stable as long as the capacitance
// matrix is well-conditioned; a singular C (the perturbation moves the pencil
// onto a singular manifold, e.g. δR exactly cancelling a conductance) is
// reported as an error and the caller falls back to refactorization, whose
// tier chain then classifies the pencil properly. The update path is NOT
// bitwise-identical to factoring the perturbed pencil — it agrees to the
// ≤1e-12 relative level the waveform contract requires (see the property
// tests); callers that need bit-exactness force the refactor path.

// smwFactor augments a private view of the base pencil factorization with the
// Woodbury correction state for one scenario's pencil delta.
type smwFactor struct {
	base *pencilFactor // private instantiate view: scratch owned here
	r    int
	v    []sparse.Vec // V factors, update order
	wt   *mat.Dense   // r×n: row i = w_i = M⁻¹(δ_i·u_i), transposed so each correction lane is one contiguous SubMul
	capf *mat.LU      // LU of C = I + Vᵀ·W
	t    []float64    // r-scratch: Vᵀy gather / capacitance solve target
}

// pencilUpdate is one rank-1 update at pencil level: the term-level RankOne
// scaled by the term's leading BPF coefficient c₀⁽ᵏ⁾ (how the term enters
// M = Σ_k c₀⁽ᵏ⁾·E_k). Updates whose leading coefficient is exactly zero do
// not perturb M at all and are dropped before rank counting.
type pencilUpdate struct {
	scale float64
	u, v  sparse.Vec
}

// pencilUpdates projects a term-level delta onto the leading pencil.
func pencilUpdates(d *PencilDelta, coeffs [][]float64) []pencilUpdate {
	ups := make([]pencilUpdate, 0, d.Rank())
	for _, up := range d.Updates {
		s := up.Scale * coeffs[up.Term][0]
		if isExactZero(s) {
			continue
		}
		ups = append(ups, pencilUpdate{scale: s, u: up.U, v: up.V})
	}
	return ups
}

// newSMWFactor builds the update tier for one scenario: base is a private
// instantiate view of the shared factorization (the caller creates one per
// scenario so setup panel solves and per-column corrections never share
// scratch), ups the pencil-level updates. Fails when the capacitance matrix
// is singular — the caller's cue to refactor instead.
func newSMWFactor(base *pencilFactor, ups []pencilUpdate, n int) (*smwFactor, error) {
	r := len(ups)
	if r == 0 {
		return nil, fmt.Errorf("core: smw update with zero pencil rank")
	}
	// Scatter the scaled U factors into an n×r panel and solve M·W = U·diag(δ)
	// through the base tier's panel kernel.
	up := mat.NewDense(n, r)
	for i, u := range ups {
		for q, row := range u.u.Idx {
			up.Row(row)[i] = u.scale * u.u.Val[q]
		}
	}
	wp := mat.NewDense(n, r)
	scratch := base.newPanelScratch(r)
	if err := base.solvePanelInto(wp, up, scratch); err != nil {
		return nil, fmt.Errorf("core: smw setup panel solve: %w", err)
	}
	// Transpose W into r×n rows so the per-column correction is one contiguous
	// vecops lane per update.
	wt := mat.NewDense(r, n)
	for i := 0; i < r; i++ {
		wi := wt.Row(i)
		for row := 0; row < n; row++ {
			wi[row] = wp.Row(row)[i]
		}
	}
	// Capacitance matrix C = I + Vᵀ·W via sparse-gather inner products.
	cm := mat.NewDense(r, r)
	sf := &smwFactor{base: base, r: r, wt: wt, t: make([]float64, r)}
	for i, u := range ups {
		ci := cm.Row(i)
		for j := 0; j < r; j++ {
			ci[j] = u.v.Dot(wt.Row(j))
		}
		ci[i]++
		sf.v = append(sf.v, u.v)
	}
	capf, err := mat.LUFactor(cm)
	if err != nil {
		return nil, fmt.Errorf("core: smw capacitance matrix singular at rank %d: %w", r, err)
	}
	sf.capf = capf
	return sf, nil
}

// correct applies the Woodbury correction in place, turning the base solve
// y = M⁻¹·b into the updated solve (M + UVᵀ)⁻¹·b: y ← y − W·C⁻¹·Vᵀ·y.
func (sf *smwFactor) correct(y []float64) {
	for i, v := range sf.v {
		sf.t[i] = v.Dot(y)
	}
	sf.capf.Solve(sf.t)
	for i, zi := range sf.t {
		vecops.SubMul(y, sf.wt.Row(i), zi)
	}
}
