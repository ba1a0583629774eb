package core

//lint:hot

import (
	"fmt"

	"opmsim/internal/sparse"
)

// RankOne is one rank-1 perturbation δ·u·vᵀ of a single term matrix: the
// stamp footprint of a component-value change. For a two-terminal admittance
// between states a and b both u and v are the incidence vector e_a − e_b and
// δ is the admittance change; for an MNA inductor the footprint is the single
// branch-diagonal entry. The circuit layer emits these via StampDelta; the
// batch engine consumes them either through the Sherman–Morrison–Woodbury
// update path or by materializing the perturbed system with ApplyDelta.
type RankOne struct {
	// Term indexes System.Terms: which E_k the update perturbs.
	Term int
	// Scale is δ, the scalar weight of the outer product.
	Scale float64
	// U and V are the sparse factors of the outer product u·vᵀ.
	U, V sparse.Vec
}

// PencilDelta is a low-rank perturbation of a System's term matrices — the
// sum of its rank-1 updates. Rank counts the updates, which bounds (and for
// independent stamps equals) the rank of the induced pencil update.
type PencilDelta struct {
	Updates []RankOne
}

// Rank returns the number of rank-1 updates (0 for nil).
func (d *PencilDelta) Rank() int {
	if d == nil {
		return 0
	}
	return len(d.Updates)
}

// validate checks every update against the system's dimensions.
func (d *PencilDelta) validate(sys *System) error {
	if d == nil {
		return nil
	}
	n := sys.N()
	for q, up := range d.Updates {
		if up.Term < 0 || up.Term >= len(sys.Terms) {
			return fmt.Errorf("core: delta update %d references term %d of %d", q, up.Term, len(sys.Terms))
		}
		if err := up.U.Validate(n); err != nil {
			return fmt.Errorf("core: delta update %d: U: %w", q, err)
		}
		if err := up.V.Validate(n); err != nil {
			return fmt.Errorf("core: delta update %d: V: %w", q, err)
		}
	}
	return nil
}

// ApplyDelta materializes the perturbed system: each touched term matrix is
// rebuilt as E_k + Σ δ_q·u_q·v_qᵀ over the updates targeting it, untouched
// terms (and B, C) share the original matrices. This is the canonical
// definition of "the perturbed system": the crossover-fallback path of the
// parameter-varying batch factors exactly this materialization, so forcing
// refactorization (BatchOptions.UpdateRankLimit < 0) reproduces
// Solve(ApplyDelta(sys, d), …) bit for bit.
//
// Entry order is deterministic: base entries are inserted in CSR row order,
// then update entries in update/outer-product order, and COO.ToCSR merges
// duplicates by that insertion order — so repeated calls yield bitwise
// identical matrices.
func ApplyDelta(sys *System, d *PencilDelta) (*System, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if err := d.validate(sys); err != nil {
		return nil, err
	}
	if d.Rank() == 0 {
		return sys, nil
	}
	touched := make(map[int]bool, len(d.Updates))
	for _, up := range d.Updates {
		touched[up.Term] = true
	}
	terms := make([]Term, len(sys.Terms))
	copy(terms, sys.Terms)
	for k := range terms {
		if !touched[k] {
			continue
		}
		a := terms[k].Coeff
		coo := sparse.NewCOO(a.R, a.C)
		for i := 0; i < a.R; i++ {
			for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
				coo.Add(i, a.ColIdx[p], a.Val[p])
			}
		}
		for _, up := range d.Updates {
			if up.Term != k {
				continue
			}
			for qi, ri := range up.U.Idx {
				ui := up.Scale * up.U.Val[qi]
				for qj, cj := range up.V.Idx {
					coo.Add(ri, cj, ui*up.V.Val[qj])
				}
			}
		}
		terms[k].Coeff = coo.ToCSR()
	}
	out := &System{Terms: terms, B: sys.B, BOrder: sys.BOrder, C: sys.C}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("core: delta-perturbed system invalid: %w", err)
	}
	return out, nil
}
