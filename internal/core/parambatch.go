package core

import (
	"fmt"
	"time"

	"opmsim/internal/mat"
)

// The parameter-varying batch engine: scenarios that perturb the shared
// pencil itself (Monte-Carlo component tolerances, corner sets) instead of
// only its right-hand sides. Each delta scenario is served one of two ways:
//
//   - SMW update path: the scenario's base solve rides the shared panel
//     factorization exactly like an amplitude scenario, followed by the
//     Woodbury correction of smw.go; the right-hand-side history terms get
//     rank-1 corrections (rhs −= δ·(vᵀw)·u per update) instead of
//     materializing the perturbed E_k, so the per-column cost stays
//     O(nnz + r·n) regardless of how many scenarios perturb the pencil.
//
//   - refactor fallback: past the crossover rank the scenario materializes
//     ApplyDelta(sys, delta), factors its own leading pencil, and solves its
//     columns through it — bit-for-bit the sequential
//     Solve(ApplyDelta(sys, delta), …) path.
//
// The crossover between them is decided once per run (resolveUpdateRankLimit)
// from the measured factorization cost of the pencil family and a probe
// solve. Both paths are members of batch.go's member-wise step and run
// through its column driver; checkpoint/resume is the one feature
// the parameter-varying engine does not support (per-scenario factorization
// state is not captured by a column-slab checkpoint), so ResumeFrom errors
// and CheckpointEvery/OnCheckpoint are ignored.
//
// Determinism contract: the scenario→path assignment is deterministic given
// UpdateRankLimit ≠ 0 (the measured auto mode can flip near break-even
// between runs — pin the limit when that matters). Refactor and nominal
// scenarios are bitwise-identical to sequential Solve; SMW scenarios agree
// with the refactored result to the ≤1e-12 relative level of the waveform
// contract (see the property tests) and are themselves bitwise-reproducible
// for a fixed path assignment.

// resolveUpdateRankLimit turns BatchOptions.UpdateRankLimit into the rank
// bound actually used: the caller's explicit limit, or the measured
// break-even of the cost model
//
//	SMW(r):      r panel columns for W + m columns × r correction lanes
//	             ≈ (r + 2·m·r·n/nnzF)·solveNS
//	refactor:    factorNS (its per-column solves cost the same as the base's)
//
// where solveNS is one probed base solve, factorNS the build cost stamped on
// the shared factorization, and nnzF the factor nonzeros (the solve cost
// scale). Returns −1 when the update path should not be used at all.
func resolveUpdateRankLimit(shared *pencilFactor, n, m int, opt *BatchOptions) int {
	if opt.UpdateRankLimit > 0 {
		return opt.UpdateRankLimit
	}
	if opt.UpdateRankLimit < 0 {
		return -1
	}
	factorNS := shared.factorNS
	if factorNS < 1 {
		return -1
	}
	probe := shared.instantiate(opt.Workers)
	zero := make([]float64, n)
	dst := make([]float64, n)
	//lint:ignore nondet timing feeds only the SMW-vs-refactor path choice, whose paths agree to 1e-12 and can be pinned via BatchOptions.UpdateRankLimit
	t0 := time.Now()
	if err := probe.solveInto(dst, zero); err != nil {
		return -1
	}
	solveNS := time.Since(t0).Nanoseconds()
	if solveNS < 1 {
		solveNS = 1
	}
	nnzF := n * n
	if shared.sp != nil {
		nnzF = shared.sp.NNZFactors()
	}
	if nnzF < 1 {
		nnzF = 1
	}
	perRank := float64(solveNS) * (1 + 2*float64(m)*float64(n)/float64(nnzF))
	lim := int(float64(factorNS) / perRank)
	if lim > n/2 {
		lim = n / 2
	}
	if lim < 1 {
		return -1
	}
	return lim
}

// solveParamBatch is the solveUniform tail for batches where at least one
// scenario carries a pencil delta. shared is the already-built factorization
// of the unperturbed leading pencil, width the scenario-group width.
func (r *columnRun) solveParamBatch(scenarios []Scenario, shared *pencilFactor, width int) ([]*Solution, error) {
	opt, rep, sys, n, m := r.opt, r.rep, r.sys, r.n, r.m
	if opt.ResumeFrom != nil {
		return nil, fmt.Errorf("core: checkpoint resume is not supported for parameter-varying batches (scenario pencil deltas present)")
	}
	K := len(scenarios)
	for s := range scenarios {
		if err := scenarios[s].Delta.validate(sys); err != nil {
			return nil, fmt.Errorf("core: batch scenario %d: %w", s, err)
		}
	}

	limit := resolveUpdateRankLimit(shared, n, m, opt)
	rep.UpdateCrossoverRank = limit

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

	// Slab sizing: envelope runs (DiscardSolutions) on systems whose terms
	// are all integer-order never read past columns, so the per-scenario slab
	// shrinks to a (maxLag+1)-column ring — intHistory keeps at most maxLag
	// column references, so a slot is dead by the time it is rewritten.
	maxLag, engineFree := 0, true
	for _, t := range sys.Terms {
		switch {
		case isExactZero(t.Order):
		case isExactEq(t.Order, float64(int(t.Order))):
			maxLag = max(maxLag, int(t.Order))
		default:
			engineFree = false
		}
	}
	if opt.DiscardSolutions && engineFree && maxLag+1 < m {
		r.ring = maxLag + 1
	}

	// Per-scenario preparation fans out over the worker pool. Tasks touch only
	// their own slot: state build, ApplyDelta materialization + factorization
	// (refactor path, into a task-local report merged sequentially below), or
	// SMW setup against a pre-instantiated base view. A singular capacitance
	// matrix demotes the scenario to the refactor path in-task.
	localRep := make([]*SolveReport, K)
	views := make([]*pencilFactor, K)
	workers := r.solveWorkers()
	for s := range scenarios {
		localRep[s] = &SolveReport{}
		if !refac[s] && len(pups[s]) > 0 {
			views[s] = shared.instantiate(workers)
		}
	}
	err := r.prepareScenarios(scenarios, func(s int, uc *mat.Dense) (*scenState, error) {
		d := scenarios[s].Delta
		psys := sys
		var ups []RankOne
		if d.Rank() > 0 {
			ups = d.Updates
		}
		var pf *pencilFactor
		var smw *smwFactor
		refactor := func() (err error) {
			if psys, err = ApplyDelta(sys, d); err != nil {
				return err
			}
			msys, err := assembleLeading(psys, r.lead)
			if err != nil {
				return err
			}
			if pf, err = factorPencil(msys, -1, 0, &opt.Options, localRep[s]); err != nil {
				return err
			}
			pf.setSolveWorkers(workers)
			ups = nil
			return nil
		}
		switch {
		case refac[s]:
			if err := refactor(); err != nil {
				return nil, err
			}
		case len(pups[s]) > 0:
			var err error
			if smw, err = newSMWFactor(views[s], pups[s], n); err != nil {
				// Capacitance singular: the perturbed pencil needs its own
				// factorization (whose tier chain classifies it properly).
				localRep[s].Warnings = append(localRep[s].Warnings, fmt.Sprintf("scenario %d: %v; refactored", s, err))
				refac[s] = true
				if err := refactor(); err != nil {
					return nil, err
				}
			}
		}
		// Otherwise a delta touching only terms with a zero leading
		// coefficient leaves the pencil unchanged, but its rhs corrections
		// still apply.
		st, err := r.prepareScenario(psys, s, scenarios[s].X0, uc)
		if err != nil {
			return nil, err
		}
		st.pf, st.smw, st.ups = pf, smw, ups
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

	// Scenario groups: the same contiguous (K, width) partition as the
	// amplitude batch, all taking the member-wise step. Parameter-varying
	// runs emit no checkpoint deltas.
	for lo := 0; lo < K; lo += width {
		r.steps = append(r.steps, newMemberStep(r.states[lo:min(lo+width, K)], shared, workers))
	}
	po := *opt
	po.OnCheckpoint = nil
	r.opt = &po
	return r.run()
}
