package core

//lint:hot

import (
	"encoding/binary"
	"fmt"
	"math"

	"opmsim/internal/mat"
	"opmsim/internal/sparse"
	"opmsim/internal/vecops"
)

// The Sherman–Morrison–Woodbury "UpdatedSolve" tier of the factor cache: when
// a scenario perturbs the shared leading pencil M by a low-rank stamp delta
// Σ δ_i·u_i·v_iᵀ = U·D·Vᵀ, solves against the perturbed pencil reuse the
// cached factorization of M through the capacitance-matrix formula
//
//	(M + U·D·Vᵀ)⁻¹·b = y − W₀·D·C⁻¹·Vᵀ·y,   y = M⁻¹·b,
//	W₀ = M⁻¹·[u₁ … u_q]  (shared by the whole batch),
//	C  = I_r + Vᵀ·W₀·D    (r×r, dense-LU factored once per scenario).
//
// The basis W₀ is solved once per batch, as chunked panel solves, over the
// q distinct pencil-level update vectors of all SMW scenarios (deduplicated
// on their exact Idx/Val bits): a Monte-Carlo sweep over L elements has
// q = L however many scenarios it draws. Each scenario keeps only its basis
// columns, its δ's, its V factors and the LU of its C. Per column the extra
// cost over the base solve is r sparse-gather inner products (Vᵀy), one r×r
// triangular solve, and r n-length SubMul lanes — versus a full
// refactorization on the fallback path. The crossover between the two lives
// in parambatch.go.
//
// Numerics: the correction is backward-stable as long as the capacitance
// matrix is well-conditioned; a singular C (the perturbation moves the pencil
// onto a singular manifold, e.g. δR exactly cancelling a conductance) is
// reported as an error and the caller falls back to refactorization, whose
// tier chain then classifies the pencil properly. The update path is NOT
// bitwise-identical to factoring the perturbed pencil — it agrees to the
// ≤1e-12 relative level the waveform contract requires (see the property
// tests); callers that need bit-exactness force the refactor path. Its own
// bits are fixed: the basis columns are independent panel-column solves, so
// they depend neither on q's chunking nor on which scenarios share them.

// smwBasis is the batch's shared Woodbury basis: the distinct pencil-level
// update vectors u_i and, once solved, W₀ transposed (row i = M⁻¹·u_i, so
// each correction lane is one contiguous SubMul).
type smwBasis struct {
	us    []sparse.Vec
	index map[string]int // exact Idx/Val bits of u → basis row
	wt    *mat.Dense     // q×n
}

func newSMWBasis() *smwBasis { return &smwBasis{index: map[string]int{}} }

// add registers one scenario's update vectors and returns the basis row of
// each, reusing the row of a bitwise-identical vector already registered.
func (b *smwBasis) add(ups []pencilUpdate) []int {
	rows := make([]int, len(ups))
	var key []byte
	for i, up := range ups {
		key = key[:0]
		for q, idx := range up.u.Idx {
			key = binary.LittleEndian.AppendUint64(key, uint64(idx))
			key = binary.LittleEndian.AppendUint64(key, math.Float64bits(up.u.Val[q]))
		}
		row, ok := b.index[string(key)]
		if !ok {
			row = len(b.us)
			b.index[string(key)] = row
			b.us = append(b.us, up.u)
		}
		rows[i] = row
	}
	return rows
}

// solve computes W₀ = M⁻¹·[u₁ … u_q] through a view of the shared
// factorization, batchPanelWidth columns per panel solve.
func (b *smwBasis) solve(shared *pencilFactor, n, workers int) error {
	q := len(b.us)
	b.wt = mat.NewDense(q, n)
	view := shared.instantiate(workers)
	for lo := 0; lo < q; lo += batchPanelWidth {
		w := min(batchPanelWidth, q-lo)
		up, wp := mat.NewDense(n, w), mat.NewDense(n, w)
		for c, u := range b.us[lo : lo+w] {
			for k, row := range u.Idx {
				up.Row(row)[c] = u.Val[k]
			}
		}
		if err := view.solvePanelInto(wp, up, view.newPanelScratch(w)); err != nil {
			return fmt.Errorf("core: smw basis panel solve: %w", err)
		}
		for c := 0; c < w; c++ {
			wi := b.wt.Row(lo + c)
			for row := range wi {
				wi[row] = wp.Row(row)[c]
			}
		}
	}
	return nil
}

// smwFactor is one scenario's Woodbury correction state against the shared
// basis.
type smwFactor struct {
	wt   *mat.Dense     // the shared basis W₀ᵀ
	ups  []pencilUpdate // δ_i and v_i of each update
	rows []int          // basis row of each update's u_i
	capf *mat.LU        // LU of C = I + Vᵀ·W₀·D
	t    []float64      // r-scratch: Vᵀy gather / capacitance solve target
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

// newSMWFactor builds one scenario's update tier from its pencil-level
// updates ups, whose u vectors sit at basis rows rows of the solved basis b.
// Fails when the capacitance matrix is singular — the caller's cue to
// refactor instead.
func newSMWFactor(b *smwBasis, ups []pencilUpdate, rows []int) (*smwFactor, error) {
	r := len(ups)
	if r == 0 {
		return nil, fmt.Errorf("core: smw update with zero pencil rank")
	}
	// Capacitance matrix C = I + Vᵀ·W₀·D via sparse-gather inner products.
	cm := mat.NewDense(r, r)
	for i, u := range ups {
		ci := cm.Row(i)
		for j, uj := range ups {
			ci[j] = u.v.Dot(b.wt.Row(rows[j])) * uj.scale
		}
		ci[i]++
	}
	capf, err := mat.LUFactorInPlace(cm)
	if err != nil {
		return nil, fmt.Errorf("core: smw capacitance matrix singular at rank %d: %w", r, err)
	}
	return &smwFactor{wt: b.wt, ups: ups, rows: rows, capf: capf, t: make([]float64, r)}, nil
}

// correct applies the Woodbury correction in place, turning the base solve
// y = M⁻¹·b into the updated solve (M + UDVᵀ)⁻¹·b: with z = C⁻¹·Vᵀ·y,
// y ← y − Σ_i (δ_i·z_i)·w₀ᵢ.
func (sf *smwFactor) correct(y []float64) {
	for i, u := range sf.ups {
		sf.t[i] = u.v.Dot(y)
	}
	sf.capf.Solve(sf.t)
	for i, zi := range sf.t {
		vecops.SubMul(y, sf.wt.Row(sf.rows[i]), sf.ups[i].scale*zi)
	}
}
