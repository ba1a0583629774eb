package core

import (
	"context"
	"fmt"
	"math"

	"opmsim/internal/sparse"
	"opmsim/internal/waveform"
)

// Nonlinearity is a static (memoryless) state nonlinearity g(x) appearing on
// the left-hand side of the system:
//
//	Σ_k E_k·d^{α_k}x + g(x(t)) = B·u(t).
//
// Circuit-wise this covers diodes and other resistive nonlinear elements,
// whose currents depend on the instantaneous node voltages.
type Nonlinearity interface {
	// Eval writes g(x) into out (len n each).
	Eval(x, out []float64)
	// StampJacobian accumulates ∂g/∂x at x into the assembly buffer.
	StampJacobian(x []float64, jac *sparse.COO)
}

// NonlinearOptions configures SolveNonlinear.
type NonlinearOptions struct {
	Options
	// MaxNewton bounds the Newton iterations per column (default 50).
	MaxNewton int
	// Tol is the Newton convergence tolerance on ‖δx‖/(1+‖x‖)
	// (default 1e-10).
	Tol float64
}

// maxArmijoHalvings bounds the backtracking line search: the damped step
// reaches 2⁻⁸ ≈ 0.4% of the Newton direction before the iteration accepts
// the smallest trial and moves on.
const maxArmijoHalvings = 8

// armijoC is the sufficient-decrease constant: a trial step t·δ is accepted
// when ‖F(x − t·δ)‖ ≤ (1 − armijoC·t)·‖F(x)‖.
const armijoC = 1e-4

// SolveNonlinear simulates Σ_k E_k·d^{α_k}x + g(x) = B·u over [0, T) with m
// uniform block-pulse intervals. Because g is static and BPFs are constant
// per interval, collocation gives one nonlinear algebraic system per column,
//
//	M₀·x_j + g(x_j) = B·u_j − Σ_k E_k·s_j⁽ᵏ⁾,
//
// solved by damped Newton with an exact sparse Jacobian M₀ + ∂g/∂x: each
// Newton direction is scaled by an Armijo backtracking line search (at most
// maxArmijoHalvings halvings), which keeps stiff exponential nonlinearities
// such as diodes from overflowing on the first iterations. The history
// machinery is identical to the linear Solve.
func SolveNonlinear(sys *System, g Nonlinearity, u []waveform.Signal, m int, T float64, opt NonlinearOptions) (*Solution, error) {
	return SolveNonlinearCtx(context.Background(), sys, g, u, m, T, opt)
}

// SolveNonlinearCtx is SolveNonlinear with cancellation; see SolveCtx for
// the contract.
func SolveNonlinearCtx(ctx context.Context, sys *System, g Nonlinearity, u []waveform.Signal, m int, T float64, opt NonlinearOptions) (_ *Solution, err error) {
	rep := opt.report()
	defer func() { rep.Err = err }()
	if g == nil {
		return nil, fmt.Errorf("core: SolveNonlinear requires a nonlinearity (use Solve)")
	}
	if opt.X0 != nil {
		return nil, fmt.Errorf("core: SolveNonlinear does not support X0")
	}
	if opt.MaxNewton <= 0 {
		opt.MaxNewton = 50
	}
	if opt.Tol <= 0 {
		opt.Tol = 1e-10
	}
	r, err := newUniformRun(ctx, sys, m, T, single(opt.Options), rep)
	if err != nil {
		return nil, err
	}
	m0, err := assembleLeading(sys, r.lead)
	if err != nil {
		return nil, err
	}
	uc, err := r.inputs(u)
	if err != nil {
		return nil, err
	}
	n := sys.N()
	return r.solveOne(uc, func(pg *panelStep) columnStep {
		return &newtonStep{panel: pg, g: g, m0: m0, opt: &opt, rep: rep,
			gval: make([]float64, n), resid: make([]float64, n), delta: make([]float64, n),
			xTrial: make([]float64, n), rTrial: make([]float64, n)}
	})
}

// newtonStep is the driver step of SolveNonlinear: column j's right-hand side
// comes from the one-wide panel step, then damped Newton solves
// M₀·x_j + g(x_j) = rhs, warm-started from column j−1.
type newtonStep struct {
	panel *panelStep
	g     Nonlinearity
	m0    *sparse.CSR
	opt   *NonlinearOptions
	rep   *SolveReport

	gval, resid, delta, xTrial, rTrial []float64
}

func (ns *newtonStep) group() *panelStep { return ns.panel }

// residAt writes M₀·x + g(x) − rhs into out and returns its 2-norm.
func (ns *newtonStep) residAt(x, rhs, out []float64) float64 {
	for i := range out {
		out[i] = -rhs[i]
	}
	ns.m0.MulVecAdd(1, x, out)
	ns.g.Eval(x, ns.gval)
	s := 0.0
	for i := range out {
		out[i] += ns.gval[i]
		s += out[i] * out[i]
	}
	return math.Sqrt(s)
}

func (ns *newtonStep) column(j int, tj float64, tiers *[numTiers]int) (int, error) {
	st, opt, n := ns.panel.members[0], ns.opt, len(ns.resid)
	if _, err := ns.panel.rhs(j, tj); err != nil {
		return 0, err
	}
	rhs := ns.panel.b.Data()
	// Warm start from the previous column (the slab starts zeroed).
	xj := st.x(j)
	if j > 0 {
		copy(xj, st.x(j-1))
	}
	for it := 0; it < opt.MaxNewton; it++ {
		phi0 := ns.residAt(xj, rhs, ns.resid)
		// Jacobian = M₀ + ∂g/∂x, assembled sparse each iteration and run
		// through the same tiered factorization chain as the linear
		// pencils: a transiently singular Jacobian degrades to dense LU
		// or QR instead of aborting the whole run.
		jac := sparse.NewCOO(n, n)
		for r := 0; r < n; r++ {
			for p := ns.m0.RowPtr[r]; p < ns.m0.RowPtr[r+1]; p++ {
				jac.Add(r, ns.m0.ColIdx[p], ns.m0.Val[p])
			}
		}
		ns.g.StampJacobian(xj, jac)
		fac, err := factorPencil(jac.ToCSR(), j, tj, &opt.Options, ns.rep)
		if err != nil {
			if _, ok := err.(*Diagnostic); !ok {
				d := diag(ErrSingularPencil, j, tj)
				d.Cause = err
				err = d
			}
			return 0, err
		}
		delta := ns.delta
		if err := fac.solveInto(delta, ns.resid); err != nil {
			d := diag(ErrInternal, j, tj)
			d.Cause = err
			return 0, d
		}
		tiers[fac.tier]++
		// Armijo backtracking: halve the step until the residual shows
		// sufficient decrease; after maxArmijoHalvings take the smallest
		// trial regardless, so a flat line search still makes progress.
		step := 1.0
		for halve := 0; ; halve++ {
			for i := range ns.xTrial {
				ns.xTrial[i] = xj[i] - step*delta[i]
			}
			phiTrial := ns.residAt(ns.xTrial, rhs, ns.rTrial)
			if phiTrial <= (1-armijoC*step)*phi0 || halve >= maxArmijoHalvings {
				break
			}
			step /= 2
			ns.rep.NewtonDampings++
		}
		copy(xj, ns.xTrial)
		// Convergence on the undamped Newton direction, as before the
		// damping existed: near the solution the full step satisfies
		// Armijo, so well-behaved problems see identical iterates.
		norm := 0.0
		xnorm := 0.0
		for i := range delta {
			norm += delta[i] * delta[i]
			xnorm += xj[i] * xj[i]
		}
		if norm <= opt.Tol*opt.Tol*(1+xnorm) {
			ns.panel.commit(j)
			return 0, st.finish(j, tj, xj)
		}
	}
	d := diag(ErrNonConvergence, j, tj)
	d.Cause = fmt.Errorf("Newton did not converge within %d iterations (after damped retries)", opt.MaxNewton)
	return 0, d
}
