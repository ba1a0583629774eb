package core

//lint:hot

import (
	"fmt"
	"math"

	"opmsim/internal/mat"
	"opmsim/internal/vecops"
)

// panelStep is the one scenario step of the uniform-grid solvers: it builds
// a group's column right-hand sides of eq. (28) as one n×w panel, solves
// them through the group's factorization, and finishes every member. Shift,
// input injection, the history sums and the solve all run at panel
// granularity: an integer-order term steps its recurrence on the group's
// lag panels, and a term served by the group's history engine (fractional
// orders, and orders p ≥ 2 on the adaptive grid) has the engine fill its
// term panel with all members' w_j. Only the committed solution column is
// gathered per scenario. Per panel column the operations match a one-vector
// solve exactly: panel kernels are column-wise identical to their vector
// counterparts (at width 1 they are those counterparts), and the engine
// computes each member's sums from its own slab, so a scenario's bits do not
// depend on its group's width.
//
// A group is a contiguous chunk of the batch's scenarios that ride the
// shared factorization, or one refactored scenario alone over its ApplyDelta
// system and private factorization. An SMW member's rank-1 right-hand-side
// corrections b −= δ·(vᵀs)·u follow each term's MulPanelAdd on its panel
// column, and its Woodbury correction is applied to the solved column
// before the column enters the lag ring — the same products and sums the
// materialized E_k + δuvᵀ would add.
//
// SolveNonlinear and both adaptive solvers solve a one-wide group
// themselves (newtonStep, adaptiveStep): they build the right-hand side
// through rhs and enter the solved column through commit.
type panelStep struct {
	sys     *System
	members []*scenState
	pf      *pencilFactor // nil when the owning step solves
	h       float64       // adaptive grid: the column's step h_j, set by the owning step; 0 on the uniform grid
	b       *mat.Dense
	scratch *panelScratch
	maxLag  int
	shiftP  *mat.Dense // per-scenario shift vectors as panel columns
	uP      *mat.Dense // inputs×w gather of the scenarios' u_j columns
	acc     []float64  // MulPanelAdd row accumulator
	hist    []*panelIntHistory
	eng     *historyEngine // the group's engine terms; nil when it has none
	engP    []*mat.Dense   // per engine term: the members' w_j as panel columns
	fixes   [][]panelFix   // per term: the members' rank-1 rhs corrections
	xpool   []*mat.Dense   // spare solve targets (a stack; maxLag+1 panels in circulation)
	xlags   []*mat.Dense   // solution lag panels, newest first (≤ maxLag)
}

// panelFix is one member's rank-1 right-hand-side correction for a term:
// panel column t of b gets −δ·(vᵀs)·u, s being column t of the term's
// history panel.
type panelFix struct {
	t  int
	up RankOne
}

// onEngine reports whether a term of the given order runs on the group's
// history engine: the non-integer orders, whose coefficients admit no short
// recurrence, and on the adaptive grid the integer orders p ≥ 2, whose D̃ᵖ
// is no longer one pattern scaled per column. Order 0 has no history; the
// other integer orders step a panelIntHistory recurrence.
func onEngine(order float64, adaptive bool) bool {
	return !isExactZero(order) && (!isExactEq(order, float64(int(order))) || adaptive && !isExactEq(order, 1))
}

// hasEngineTerms reports whether a solve of sys runs any term on a history
// engine (onEngine).
func hasEngineTerms(sys *System, adaptive bool) bool {
	for _, t := range sys.Terms {
		if onEngine(t.Order, adaptive) {
			return true
		}
	}
	return false
}

// newPanelStep builds the step of a group whose members share one system.
// It is the one place that routes the system's terms (onEngine): each
// engine term is registered once, on the group's engine, which fans its FFT
// firings out under the run's solve-worker rule.
func (r *columnRun) newPanelStep(members []*scenState, pf *pencilFactor) *panelStep {
	sys := members[0].sys
	n, w := sys.N(), len(members)
	g := &panelStep{sys: sys, members: members, pf: pf, b: mat.NewDense(n, w),
		shiftP: mat.NewDense(n, w), uP: mat.NewDense(sys.Inputs(), w), acc: make([]float64, w),
		hist: make([]*panelIntHistory, len(sys.Terms)), engP: make([]*mat.Dense, len(sys.Terms)),
		fixes: make([][]panelFix, len(sys.Terms))}
	if pf != nil && w > 1 {
		g.scratch = pf.newPanelScratch(w)
	}
	for i := 0; i < n; i++ {
		row := g.shiftP.Row(i)
		for t, st := range members {
			row[t] = st.shift[i]
		}
	}
	adaptive := r.times != nil
	if hasEngineTerms(sys, adaptive) {
		xs := make([][]float64, w)
		for c, st := range members {
			xs[c] = st.xbuf
		}
		g.eng = newHistoryEngine(n, r.m, r.solveWorkers(), r.useFFT && !adaptive, xs, len(sys.Terms))
		g.eng.ctx, g.eng.fault = r.ctx, r.opt.Fault
	}
	for k, t := range sys.Terms {
		switch {
		case isExactZero(t.Order):
		case onEngine(t.Order, adaptive):
			if adaptive {
				g.eng.addGeneral(k, r.dmats[k])
			} else {
				g.eng.addToeplitz(k, r.coeffs[k])
			}
			g.engP[k] = mat.NewDense(n, w)
		default:
			p := int(t.Order)
			g.hist[k] = newPanelIntHistory(p, r.h, n, w)
			g.maxLag = max(g.maxLag, p)
		}
	}
	for t, st := range members {
		for _, up := range st.ups {
			if !isExactZero(sys.Terms[up.Term].Order) {
				g.fixes[up.Term] = append(g.fixes[up.Term], panelFix{t: t, up: up})
			}
		}
	}
	for i := 0; i <= g.maxLag; i++ {
		g.xpool = append(g.xpool, mat.NewDense(n, w))
	}
	return g
}

// rhs assembles column j's right-hand-side panel into g.b:
// shift + B·u_j − Σ_k E_k·s_j⁽ᵏ⁾, less the SMW members' rank-1 corrections.
// The u_j are gathered from the members' input coefficients; a scenario
// without them (SolveAdaptiveAuto's) has its step sample them into g.uP.
// On an engine failure it returns the group's first scenario index.
func (g *panelStep) rhs(j int, tj float64) (int, error) {
	w := len(g.members)
	copy(g.b.Data(), g.shiftP.Data())
	for c := 0; c < g.uP.Rows() && g.members[0].uc != nil; c++ {
		urow := g.uP.Row(c)
		for t, st := range g.members {
			urow[t] = st.uc.Row(c)[j]
		}
	}
	g.sys.B.MulPanelAdd(1, g.uP, g.b, g.acc)
	bd := g.b.Data()
	for k, term := range g.sys.Terms {
		var s *mat.Dense
		alpha := -1.0
		switch {
		case g.hist[k] != nil:
			s = g.hist[k].current(g.xlags)
			if !isExactZero(g.h) {
				alpha = -1 / g.h
			}
		case g.engP[k] != nil:
			s = g.engP[k]
			if err := g.eng.history(k, j, s); err != nil {
				d := diag(engineErrKind(err), j, tj)
				d.Order = term.Order
				d.Cause = fmt.Errorf("scenario %d's group: %w", g.members[0].s, err)
				return g.members[0].s, d
			}
		default:
			continue
		}
		term.Coeff.MulPanelAdd(alpha, s, g.b, g.acc)
		sd := s.Data()
		for _, f := range g.fixes[k] {
			// U.ScatterAdd(−(δ·V.Dot(s)), b) on column f.t: the same
			// products and sums in the same order.
			dot := 0.0
			for q, i := range f.up.V.Idx {
				dot += f.up.V.Val[q] * sd[i*w+f.t]
			}
			a := -(f.up.Scale * dot)
			for q, i := range f.up.U.Idx {
				bd[i*w+f.t] += a * f.up.U.Val[q]
			}
		}
	}
	return 0, nil
}

func (g *panelStep) column(j int, tj float64, tiers *[numTiers]int) (int, error) {
	if s, err := g.rhs(j, tj); err != nil {
		return s, err
	}
	w := len(g.members)
	xcur := g.takePanel()
	if err := g.pf.solvePanelInto(xcur, g.b, g.scratch); err != nil {
		d := diag(ErrInternal, j, tj)
		d.Cause = fmt.Errorf("scenario %d's group: %w", g.members[0].s, err)
		return g.members[0].s, d
	}
	tiers[g.pf.tier] += w
	// One sweep over the solved panel finishes each member: its column is
	// gathered into the slab, an SMW member's Woodbury correction is applied
	// and written back (the panel enters the lag ring corrected), then the
	// member's screen and hook values run on the slab column.
	var first error
	firstS := 0
	xd := xcur.Data()
	for t, st := range g.members {
		x := st.x(j)
		for i := range x {
			x[i] = xd[i*w+t]
		}
		if st.smw != nil {
			st.smw.correct(x)
			for i, v := range x {
				xd[i*w+t] = v
			}
		}
		if err := st.finish(j, tj, x); err != nil && first == nil {
			first, firstS = err, st.s
		}
	}
	g.advance(xcur)
	return firstS, first
}

// commit enters the members' slab columns j into the lag ring, for steps
// that solve into the slab themselves and for replay.
func (g *panelStep) commit(j int) {
	if g.maxLag == 0 {
		return
	}
	w := len(g.members)
	xcur := g.takePanel()
	xd := xcur.Data()
	for t, st := range g.members {
		for i, v := range st.x(j) {
			xd[i*w+t] = v
		}
	}
	g.advance(xcur)
}

// retreat takes back the last commit and the sums computed since, for
// SolveAdaptiveAuto's rejected trials (its order-1 terms make a ring): the
// committed column's sums are pending again and its lag panel returns to
// the pool. The rings come back one entry short, which is enough: their
// oldest entry fed only the sums that are pending again.
func (g *panelStep) retreat() {
	g.xpool = append(g.xpool, g.xlags[0])
	g.xlags = append(g.xlags[:0], g.xlags[1:]...)
	for _, ph := range g.hist {
		if ph != nil {
			ph.pool = append(ph.pool, ph.s)
			ph.s = ph.ss[0]
			ph.ss = append(ph.ss[:0], ph.ss[1:]...)
		}
	}
}

// takePanel pops a spare solution panel off the pool. The pool is a stack,
// so the rotation never reallocates it; every panel taken is overwritten
// whole before it is read.
func (g *panelStep) takePanel() *mat.Dense {
	x := g.xpool[len(g.xpool)-1]
	g.xpool = g.xpool[:len(g.xpool)-1]
	return x
}

// advance rotates the column's solution panel into the lag ring (the evicted
// panel becomes the next solve target) and advances each term's recurrence.
func (g *panelStep) advance(xcur *mat.Dense) {
	if g.maxLag > 0 {
		if len(g.xlags) == g.maxLag {
			g.xpool = append(g.xpool, g.xlags[g.maxLag-1])
			copy(g.xlags[1:], g.xlags[:g.maxLag-1])
		} else {
			g.xlags = append(g.xlags, nil)
			copy(g.xlags[1:], g.xlags[:len(g.xlags)-1])
		}
		g.xlags[0] = xcur
	} else {
		g.xpool = append(g.xpool, xcur)
	}
	for _, ph := range g.hist {
		if ph != nil {
			ph.advance()
		}
	}
}

// replay rebuilds the group's history state through column j0 from the
// committed slabs (see checkpoint.go): the recurrences step column by
// column as rhs and commit do, and the group's engine refires its FFT
// segments once for all members.
func (g *panelStep) replay(j0 int) error {
	for j := 0; j < j0; j++ {
		for _, ph := range g.hist {
			if ph != nil {
				ph.current(g.xlags)
			}
		}
		g.commit(j)
	}
	if g.eng == nil {
		return nil
	}
	return g.eng.resumeAt(j0)
}

func (g *panelStep) group() *panelStep { return g }

// panelIntHistory maintains the history sums of an integer-order term
// p ≥ 1 for an n×w panel whose columns are the group's scenarios. Because
// (1+q)ᵖ·ρ_p(q) = (2/h)ᵖ(1−q)ᵖ is a degree-p polynomial, the Toeplitz
// coefficients obey a p-term linear recurrence and so do the history sums
// s_j = Σ_{i<j} c_{j−i}·x_i:
//
//	s_j = Σ_{k=1..p} γ_k·x_{j−k} − Σ_{l=1..p} C(p,l)·s_{j−l},
//	γ_k = C(p,k)·(2/h)ᵖ·((−1)ᵏ − 1)   (zero for even k).
//
// For p = 1 this is the classical s_j = −(4/h)x_{j−1} − s_{j−1} of §III-A;
// for p ≥ 2 it keeps high-order solves at O(p·n) per column instead of
// O(n·j). Fractional orders have no such recurrence and use the history
// engine, matching the paper's complexity discussion for eq. (28). Panel
// ops are element-wise with no cross-column interaction, so each column
// runs the one-vector recurrence bit for bit. Protocol per column: call
// current(), use the result, then call advance(); a repeated current()
// before advance returns the same sums. Ring buffers rotate pointers
// instead of copying: current() claims a panel from the pool, advance()
// pushes it into the lag ring and recycles the evicted one.
type panelIntHistory struct {
	p     int
	gamma []float64    // γ_k, k = 1..p (zero for even k)
	binom []float64    // C(p,k), k = 1..p
	ss    []*mat.Dense // previous sum panels, newest first
	pool  []*mat.Dense // spare panels (p+1 total in circulation)
	s     *mat.Dense   // s_j panel between current() and advance()
}

func newPanelIntHistory(p int, h float64, n, w int) *panelIntHistory {
	hp := math.Pow(2/h, float64(p))
	ph := &panelIntHistory{p: p, gamma: make([]float64, p), binom: make([]float64, p)}
	b := 1.0
	for k := 1; k <= p; k++ {
		b = b * float64(p-k+1) / float64(k)
		ph.binom[k-1] = b
		if k%2 == 1 {
			ph.gamma[k-1] = -2 * b * hp
		}
	}
	for i := 0; i <= p; i++ {
		ph.pool = append(ph.pool, mat.NewDense(n, w))
	}
	return ph
}

// current computes the s_j panel from the group's solution-lag panels
// (newest first), skipping the zero γ_k.
func (ph *panelIntHistory) current(xlags []*mat.Dense) *mat.Dense {
	if ph.s != nil {
		return ph.s
	}
	ph.s = ph.pool[len(ph.pool)-1]
	ph.pool = ph.pool[:len(ph.pool)-1]
	sd := ph.s.Data()
	for i := range sd {
		sd[i] = 0
	}
	kmax := len(xlags)
	if kmax > ph.p {
		kmax = ph.p
	}
	for k := 0; k < kmax; k++ {
		if g := ph.gamma[k]; !isExactZero(g) {
			vecops.AddMul(sd, xlags[k].Data(), g)
		}
	}
	for l := 0; l < len(ph.ss); l++ {
		vecops.AddMul(sd, ph.ss[l].Data(), -ph.binom[l])
	}
	return ph.s
}

// advance pushes the s_j panel computed by current into the sum-lag ring.
func (ph *panelIntHistory) advance() {
	if len(ph.ss) == ph.p {
		ph.pool = append(ph.pool, ph.ss[ph.p-1])
		copy(ph.ss[1:], ph.ss[:ph.p-1])
	} else {
		ph.ss = append(ph.ss, nil)
		copy(ph.ss[1:], ph.ss[:len(ph.ss)-1])
	}
	ph.ss[0] = ph.s
	ph.s = nil
}
