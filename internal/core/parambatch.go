package core

//lint:hot

import (
	"fmt"

	"opmsim/internal/mat"
)

// The parameter-varying batch engine: scenarios that perturb the shared
// pencil itself (Monte-Carlo component tolerances, corner sets) instead of
// only its right-hand sides. Each delta scenario is served one of two ways:
//
//   - SMW update path: the scenario's base solve rides the shared panel
//     factorization exactly like an amplitude scenario, followed by the
//     Woodbury correction of smw.go against the batch's one shared basis
//     W₀ = M⁻¹·[u₁ … u_q]; the right-hand-side history terms get rank-1
//     corrections (rhs −= δ·(vᵀw)·u per update) instead of materializing
//     the perturbed E_k, so the per-column cost stays O(nnz + r·n)
//     regardless of how many scenarios perturb the pencil.
//
//   - refactor fallback: past the crossover rank the scenario materializes
//     ApplyDelta(sys, delta), factors its own leading pencil, and solves its
//     columns through it — bit-for-bit the sequential
//     Solve(ApplyDelta(sys, delta), …) path.
//
// The crossover between them is decided once per run (resolveUpdateRankLimit)
// from counts the run already holds: n, m, the pencil's and its factors'
// nonzeros, the factorization's multiply-adds and each scenario's update
// rank. Scenario groups run through batch.go's column driver and its one
// step (panel.go): the scenarios riding the shared factorization form the
// contiguous PanelWidth groups, whose panel columns take the rank-1 rhs
// corrections and Woodbury corrections, and each refactored scenario is a
// one-wide group over its own factorization. Parameter batches checkpoint
// and resume like any other batch: a slab holds the corrected columns, the
// per-scenario factors and the Woodbury basis are pure functions of the
// pencil and the deltas, so a resume rebuilds them and replays the groups'
// history from the slabs. The checkpoint header carries the resolved
// crossover rank, so a resume under another path assignment is refused.
//
// Determinism contract: the scenario→path assignment is a pure function of
// the pencil, the deltas and UpdateRankLimit, so two runs of one sweep take
// the same paths. Refactor and nominal scenarios are bitwise-identical to
// sequential Solve; SMW scenarios agree with the refactored result to the
// ≤1e-12 relative level of the waveform contract (see the property tests)
// and are themselves bitwise-reproducible whatever the PanelWidth and
// Workers: a panel column runs a one-wide panel's operations in the same
// order, and the basis columns are independent panel-column solves.

// refactorColumnWeight is the multiply-adds a refactored scenario pays per
// column for each stored nonzero of the pencil and of its factors. Such a
// scenario is a one-wide group of its own: its right-hand side through every
// term and its substitution through its private factors are indirectly
// indexed and amortized over no panel, where an SMW scenario adds only dense
// Woodbury lanes to the shared panel's column. The weight is calibrated on
// measured legs (DESIGN.md §13): it puts the crossover at rank 215 on the
// 768-state grid (measured between 192 and 256) and 34 on the 102-state
// RC ladder (measured between 40 and 44).
const refactorColumnWeight = 8

// resolveUpdateRankLimit turns BatchOptions.UpdateRankLimit into the rank
// bound actually used: the caller's explicit limit, or −1 when the update
// path is disabled, or crossoverRank over the shared factorization's counts.
func resolveUpdateRankLimit(shared *pencilFactor, m int, opt *BatchOptions) int {
	switch {
	case opt.UpdateRankLimit > 0:
		return opt.UpdateRankLimit
	case opt.UpdateRankLimit < 0:
		return -1
	}
	nnzF, mulAdds := shared.factorCounts()
	return crossoverRank(shared.a.R, m, shared.a.NNZ(), nnzF, mulAdds)
}

// crossoverRank is the largest update rank r ≤ n/2 at which one scenario's
// SMW path costs no more multiply-adds than refactoring it,
//
//	SMW(r):    m·r·(n + r) + r³/3
//	           (per column r dot products, an r×r triangular solve and r
//	           n-length correction lanes; the capacitance LU once)
//	refactor:  mulAdds + refactorColumnWeight·m·(nnz(A) + nnz(L+U))
//	           (the factorization, then m one-wide columns),
//
// or −1 when no rank passes. The shared basis W₀ is solved once per batch
// and left out of both sides.
func crossoverRank(n, m, nnzA, nnzF, mulAdds int) int {
	fn, fm := float64(n), float64(m)
	refactor := float64(mulAdds) + refactorColumnWeight*fm*float64(nnzA+nnzF)
	lim := -1
	for r := 1; r <= n/2; r++ {
		fr := float64(r)
		if fm*fr*(fn+fr)+fr*fr*fr/3 > refactor {
			break
		}
		lim = r
	}
	return lim
}

// solveParamBatch is the solveUniform tail for batches where at least one
// scenario carries a pencil delta. shared is the already-built factorization
// of the unperturbed leading pencil, width the scenario-group width.
func (r *columnRun) solveParamBatch(scenarios []Scenario, shared *pencilFactor, width int) ([]*Solution, error) {
	opt, rep, sys, n, m := r.opt, r.rep, r.sys, r.n, r.m
	K := len(scenarios)
	for s := range scenarios {
		if err := scenarios[s].Delta.validate(sys); err != nil {
			return nil, fmt.Errorf("core: batch scenario %d: %w", s, err)
		}
	}

	limit := resolveUpdateRankLimit(shared, m, opt)
	rep.UpdateCrossoverRank = limit
	r.crossover = limit

	// Path assignment: project each delta onto the leading pencil and compare
	// its rank against the crossover limit. Deterministic given the limit.
	pups := make([][]pencilUpdate, K)
	refac := make([]bool, K)
	for s := range scenarios {
		d := scenarios[s].Delta
		if d.Rank() == 0 {
			continue
		}
		pups[s] = pencilUpdates(d, r.coeffs)
		if rank := len(pups[s]); rank > 0 && (limit < 0 || rank > limit) {
			refac[s] = true
		}
	}

	// The shared Woodbury basis over the SMW scenarios' distinct update
	// vectors, then each SMW scenario's capacitance factorization — cheap
	// (r² sparse dots and an r×r LU), so it runs before the fan-out and the
	// path assignment is final when the groups are formed. A singular
	// capacitance matrix (or a failed basis solve) demotes the scenario to the
	// refactor path.
	localRep := make([]*SolveReport, K)
	for s := range localRep {
		localRep[s] = &SolveReport{}
	}
	basis := newSMWBasis()
	rows := make([][]int, K)
	for s := range scenarios {
		if !refac[s] && len(pups[s]) > 0 {
			rows[s] = basis.add(pups[s])
		}
	}
	rep.UpdateBasisColumns = len(basis.us)
	var basisErr error
	if len(basis.us) > 0 {
		basisErr = basis.solve(shared, n, opt.Workers)
	}
	smws := make([]*smwFactor, K)
	demote := func(s int, err error) {
		// The perturbed pencil needs its own factorization (whose tier
		// chain classifies it properly).
		localRep[s].Warnings = append(localRep[s].Warnings, fmt.Sprintf("scenario %d: %v; refactored", s, err))
		refac[s] = true
	}
	for s, bs := range rows {
		if bs == nil {
			continue
		}
		err := basisErr
		if err == nil {
			smws[s], err = newSMWFactor(basis, pups[s], bs)
		}
		if err != nil {
			demote(s, err)
		}
	}

	// Slab sizing: an envelope run (DiscardSolutions) reads no past column
	// when no term runs on a history engine — every member's recurrence lags
	// live in its group's panels — so each slab holds one column, unless the
	// run emits or resumes a checkpoint, which carries whole slabs.
	r.ring = opt.DiscardSolutions && !hasEngineTerms(sys, false) &&
		opt.OnCheckpoint == nil && opt.ResumeFrom == nil
	groups := scenarioGroups(K, width, refac)
	r.serial = len(groups) > 1

	// Per-scenario preparation fans out over the worker pool. Tasks touch only
	// their own slot: state build, and for the refactor path the ApplyDelta
	// materialization + factorization into a task-local report merged
	// sequentially below.
	workers := r.solveWorkers()
	err := r.prepareScenarios(scenarios, func(s int, uc *mat.Dense) (*scenState, error) {
		d := scenarios[s].Delta
		psys := sys
		var ups []RankOne
		var pf *pencilFactor
		switch {
		case refac[s]:
			var err error
			if psys, err = ApplyDelta(sys, d); err != nil {
				return nil, err
			}
			msys, err := assembleLeading(psys, r.lead)
			if err != nil {
				return nil, err
			}
			if pf, err = factorPencil(msys, -1, 0, &opt.Options, localRep[s]); err != nil {
				return nil, err
			}
			pf.setSolveWorkers(workers)
		case d.Rank() > 0:
			// SMW path — or, for a delta touching only terms with a zero
			// leading coefficient, an unchanged pencil whose rhs
			// corrections still apply.
			ups = d.Updates
		}
		st, err := r.prepareScenario(psys, s, scenarios[s].X0, uc)
		if err != nil {
			return nil, err
		}
		st.pf, st.smw, st.ups = pf, smws[s], ups
		if pf == nil && scenarios[s].X0 != nil {
			// SMW path with a nonzero initial state: order-0 updates enter
			// the constant shift g = −Σ_{α=0} E_k·x₀ as −δ·(vᵀx₀)·u.
			for _, u := range ups {
				if isExactZero(sys.Terms[u.Term].Order) {
					u.U.ScatterAdd(-(u.Scale * u.V.Dot(st.x0)), st.shift)
				}
			}
		}
		return st, nil
	})
	if err != nil {
		return nil, err
	}

	// Sequential merge of per-scenario prep accounting, in scenario order.
	for s, lr := range localRep {
		rep.Factorizations += lr.Factorizations
		rep.Fallbacks = append(rep.Fallbacks, lr.Fallbacks...)
		rep.Warnings = append(rep.Warnings, lr.Warnings...)
		rep.observeCond(lr.MaxCond)
		switch {
		case refac[s]:
			rep.PencilRefactors++
		case r.states[s].smw != nil:
			rep.PencilUpdates++
			if opt.FactorCache != nil {
				rep.FactorCacheUpdateHits++
				opt.FactorCache.noteUpdateHit()
			}
		}
	}

	r.addGroupSteps(shared, groups)
	return r.run()
}
