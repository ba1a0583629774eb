package core

import (
	"errors"
	"fmt"
	"math"
)

// The solver error taxonomy. Every failure surfaced by Solve, SolveAdaptive,
// SolveAdaptiveAuto, SolveNonlinear, and their Ctx variants wraps exactly one
// of these sentinels inside a *Diagnostic, so callers can route on
// errors.Is(err, core.ErrXxx) and recover the failing column, time, and
// condition estimate with errors.As.
var (
	// ErrSingularPencil: the leading matrix M = Σ_k c₀⁽ᵏ⁾·E_k (or a Newton
	// Jacobian) is singular through every factorization tier, including the
	// rank-revealing QR backstop.
	ErrSingularPencil = errors.New("singular pencil")
	// ErrIllConditioned: a factorization succeeded but its 1-norm condition
	// estimate exceeds the limit 1e14 and no healthier tier is available.
	ErrIllConditioned = errors.New("pencil is ill-conditioned")
	// ErrNonFinite: a solved column contains NaN or ±Inf — typically a
	// poisoned input sample or an overflowing nonlinearity; the solve aborts
	// at the first such column instead of propagating the poison through the
	// history recurrence.
	ErrNonFinite = errors.New("non-finite value in solution column")
	// ErrNonConvergence: an iteration gave up — Newton at a column after the
	// damped retries, or the adaptive controller after MaxSteps/backoff.
	ErrNonConvergence = errors.New("iteration did not converge")
	// ErrCancelled: the context passed to a *Ctx entry point was cancelled or
	// its deadline expired.
	ErrCancelled = errors.New("solve cancelled")
	// ErrInternal: an invariant was violated inside the solver — e.g. a
	// worker task panicked — and was recovered instead of crashing the
	// process.
	ErrInternal = errors.New("internal solver fault")
)

// Diagnostic is the typed error the solver core returns. It pins the failure
// to a column and simulation time, names the term order involved where that
// is meaningful, and carries the condition estimate that drove a fallback
// decision. Kind is always one of the package sentinels, reachable through
// errors.Is; the optional Cause preserves the lower-level error.
type Diagnostic struct {
	// Kind is the taxonomy sentinel (ErrSingularPencil, …).
	Kind error
	// Column is the BPF column (time-step index) at which the solve failed,
	// or −1 when the failure is not tied to a column (e.g. the shared leading
	// factorization or input validation).
	Column int
	// Time is the simulation time at the failing column's midpoint; NaN when
	// unknown.
	Time float64
	// Order is the differentiation order of the term involved; NaN when the
	// failure is not term-specific.
	Order float64
	// Cond is the 1-norm condition estimate available at the failure site;
	// 0 when no estimate was computed, +Inf when the estimator overflowed.
	Cond float64
	// Cause is the underlying error, if any.
	Cause error
}

// diag builds a Diagnostic with the column/time fields set and the
// term-order field defaulted to NaN.
func diag(kind error, col int, t float64) *Diagnostic {
	return &Diagnostic{Kind: kind, Column: col, Time: t, Order: math.NaN()}
}

func (d *Diagnostic) Error() string {
	s := "core: " + d.Kind.Error()
	if d.Column >= 0 {
		s += fmt.Sprintf(" at column %d", d.Column)
		if !math.IsNaN(d.Time) {
			s += fmt.Sprintf(" (t≈%g)", d.Time)
		}
	}
	if !math.IsNaN(d.Order) {
		s += fmt.Sprintf(" [term order %g]", d.Order)
	}
	if d.Cond > 0 {
		s += fmt.Sprintf(" [cond₁≈%.3g]", d.Cond)
	}
	if d.Cause != nil {
		s += ": " + d.Cause.Error()
	}
	return s
}

// Unwrap exposes both the taxonomy sentinel and the underlying cause to
// errors.Is/As.
func (d *Diagnostic) Unwrap() []error {
	if d.Cause != nil {
		return []error{d.Kind, d.Cause}
	}
	return []error{d.Kind}
}

// Tier identifies which factorization backend served a linear solve in the
// graceful-degradation chain. The constants are in chain order.
type Tier int

const (
	// TierSupernodal is the large-grid fast path tried first when engaged
	// (Options.Supernodal / DefaultSupernodalMinN): nested-dissection domain
	// decomposition with supernodal blocked domain factors and a dense
	// interface Schur complement. A failed or ill-conditioned supernodal
	// factorization falls through to TierSparseLU, so it never counts as
	// degradation.
	TierSupernodal Tier = iota
	// TierSparseLU is the default fast path: Gilbert–Peierls sparse LU with
	// AMD pre-ordering, shared across all columns.
	TierSparseLU
	// TierDenseLU is the first fallback: dense partial-pivoting LU with one
	// step of iterative refinement against the sparse matrix.
	TierDenseLU
	// TierQR is the last resort: Householder QR least-squares, which still
	// produces the minimum-residual solution for numerically rank-deficient
	// pencils that LU rejects.
	TierQR
	numTiers
)

func (t Tier) String() string {
	switch t {
	case TierSupernodal:
		return "supernodal-BBD"
	case TierSparseLU:
		return "sparse-LU"
	case TierDenseLU:
		return "dense-LU+refine"
	case TierQR:
		return "QR-least-squares"
	}
	return fmt.Sprintf("tier(%d)", int(t))
}

// Fallback records one factorization that degraded below the sparse-LU fast
// path.
type Fallback struct {
	// Column the factorization first served; −1 for a factorization shared
	// by all columns (the uniform-grid leading pencil).
	Column int
	// Tier that ended up serving the solves.
	Tier Tier
	// Cond is the sparse-LU condition estimate that triggered the fallback;
	// 0 when the sparse factorization failed outright.
	Cond float64
	// Reason is a one-line human-readable cause.
	Reason string
}

// SolveReport accumulates what the hardened solver core actually did during
// one run: how many column solves each factorization tier served, which
// factorizations fell back and why, the worst condition estimate seen, and
// how often the adaptive controller or damped Newton had to retry. Attach an
// empty report via Options.Report before calling a solver; the solver fills
// it in place (also on failure, so post-mortems see the partial run).
type SolveReport struct {
	// Columns actually solved (committed).
	Columns int
	// TierSolves counts column solves served per tier, indexed by Tier.
	TierSolves [numTiers]int
	// Factorizations counts pencil factorizations built (the adaptive solvers
	// build one per distinct step size).
	Factorizations int
	// Fallbacks lists every factorization that degraded below sparse LU.
	Fallbacks []Fallback
	// MaxCond is the largest 1-norm condition estimate observed.
	MaxCond float64
	// StepRetries counts adaptive steps retried with a halved h after a
	// factorization or solve failure.
	StepRetries int
	// NewtonDampings counts Armijo step halvings taken across all Newton
	// iterations.
	NewtonDampings int
	// FactorCacheHits and FactorCacheMisses count pencil-factorization
	// requests served from (and added to) Options.FactorCache during the run;
	// both stay zero when no cache is attached. A hit means the run reused a
	// factorization built by an earlier run (or an earlier scenario/step size
	// of this run) instead of refactoring.
	FactorCacheHits   int
	FactorCacheMisses int
	// FactorCacheUpdateHits counts scenarios served through the SMW
	// UpdatedSolve tier — a cached (or shared) base factorization plus a
	// low-rank Woodbury correction — instead of a fresh factorization. Like
	// the hit/miss counters it stays zero when no cache is attached.
	FactorCacheUpdateHits int
	// PencilUpdates and PencilRefactors count how the parameter-varying batch
	// dispatched its delta-carrying scenarios: through the SMW update path or
	// through a full per-scenario refactorization (the crossover fallback).
	// Both stay zero when no scenario carries a pencil delta.
	PencilUpdates   int
	PencilRefactors int
	// UpdateCrossoverRank records the SMW-vs-refactor rank limit the
	// parameter-varying batch resolved to: −1 when the update path was
	// disabled (explicitly or because the count rule prices refactorization
	// below even a rank-1 update), 0 when no parameter-varying batch ran,
	// otherwise the largest pencil-update rank served by SMW. Checkpoints
	// carry it (Checkpoint.UpdateCrossoverRank).
	UpdateCrossoverRank int
	// UpdateBasisColumns is q, the number of distinct pencil-level update
	// vectors u_i whose solves W₀ = M⁻¹·[u₁ … u_q] the batch's SMW scenarios
	// share: the element count of a Monte-Carlo or corner sweep, the total
	// rank of all-distinct deltas. Zero when no scenario took the SMW path.
	UpdateBasisColumns int
	// Err records the run's terminal error — the same *Diagnostic the solver
	// returned — or nil after a successful solve. Keeping it on the report
	// lets a consumer holding only the report (a service's job ledger, a
	// post-mortem dump) route on errors.Is(rep.Err, ErrCancelled) without
	// also threading the return value through. Every solver entry point sets
	// it on the way out, success and failure alike, so a report reused across
	// runs always reflects the most recent one.
	Err error
	// HistoryEngine names the engine that served the run's
	// fractional/high-order history sums: "exact" or "fft"; empty
	// when every term used an O(1) recurrence (the orders-{0,1} fast path)
	// and no general history engine ran. It records what HistoryAuto
	// resolved to, and that adaptive grids stayed on the exact engine.
	HistoryEngine string
	// Warnings collects non-fatal condition warnings.
	Warnings []string
}

// Degraded reports whether any solve was served below the sparse-LU fast
// path.
func (r *SolveReport) Degraded() bool {
	return r != nil && (r.TierSolves[TierDenseLU] > 0 || r.TierSolves[TierQR] > 0)
}

// Summary renders the report as a short multi-line string for -verbose CLI
// output and logs.
func (r *SolveReport) Summary() string {
	s := fmt.Sprintf("solve report: %d columns, %d factorizations; tiers: %s=%d %s=%d %s=%d %s=%d",
		r.Columns, r.Factorizations,
		TierSupernodal, r.TierSolves[TierSupernodal],
		TierSparseLU, r.TierSolves[TierSparseLU],
		TierDenseLU, r.TierSolves[TierDenseLU],
		TierQR, r.TierSolves[TierQR])
	if r.MaxCond > 0 {
		s += fmt.Sprintf("; max cond₁≈%.3g", r.MaxCond)
	}
	if r.HistoryEngine != "" {
		s += "; history engine: " + r.HistoryEngine
	}
	if r.FactorCacheHits > 0 || r.FactorCacheUpdateHits > 0 || r.FactorCacheMisses > 0 {
		s += fmt.Sprintf("; factor cache: %d hits, %d update hits, %d misses",
			r.FactorCacheHits, r.FactorCacheUpdateHits, r.FactorCacheMisses)
	}
	if r.PencilUpdates > 0 || r.PencilRefactors > 0 {
		s += fmt.Sprintf("; pencil deltas: %d SMW updates, %d refactorizations (crossover rank %d, %d basis columns)",
			r.PencilUpdates, r.PencilRefactors, r.UpdateCrossoverRank, r.UpdateBasisColumns)
	}
	if r.StepRetries > 0 {
		s += fmt.Sprintf("; %d step retries", r.StepRetries)
	}
	if r.NewtonDampings > 0 {
		s += fmt.Sprintf("; %d Newton dampings", r.NewtonDampings)
	}
	for _, fb := range r.Fallbacks {
		col := "shared"
		if fb.Column >= 0 {
			col = fmt.Sprintf("column %d", fb.Column)
		}
		s += fmt.Sprintf("\n  fallback: %s pencil served by %s (%s)", col, fb.Tier, fb.Reason)
	}
	for _, w := range r.Warnings {
		s += "\n  warning: " + w
	}
	return s
}

// observeCond folds a condition estimate into the report.
func (r *SolveReport) observeCond(c float64) {
	if r != nil && c > r.MaxCond {
		r.MaxCond = c
	}
}
