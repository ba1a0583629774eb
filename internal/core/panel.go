package core

import (
	"fmt"

	"opmsim/internal/mat"
	"opmsim/internal/vecops"
)

// panelStep is the panel-native step for systems whose nonzero terms all
// have integer order: every operation — shift, input injection, history
// recurrences, the solve — runs at panel granularity, and only the committed
// solution column is gathered per scenario. Per panel column the operations
// match the scalar loop exactly: panel kernels are column-wise identical to
// their one-vector counterparts and the history panels mirror intHistory's
// recurrence.
//
// Members of a parameter-varying group ride the shared factorization too:
// after each term's MulPanelAdd a member's rank-1 right-hand-side
// corrections b −= δ·(vᵀs)·u are applied to its panel column, and after the
// solve an SMW member's column takes its Woodbury correction before the
// column enters the lag ring. Both run the same operations in the same
// order as memberStep's scalar rhs and correct, so a scenario's bits do not
// depend on which step served it.
type panelStep struct {
	sys     *System
	members []*scenState
	pf      *pencilFactor
	b       *mat.Dense
	scratch *panelScratch
	maxLag  int
	shiftP  *mat.Dense // per-scenario shift vectors as panel columns
	uP      *mat.Dense // inputs×w gather of the scenarios' u_j columns
	acc     []float64  // MulPanelAdd row accumulator
	hist    []*panelIntHistory
	fixes   [][]panelFix // per term: the members' rank-1 rhs corrections
	xpool   []*mat.Dense // spare solve targets (a stack; maxLag+1 panels in circulation)
	xlags   []*mat.Dense // solution lag panels, newest first (≤ maxLag)
}

// panelFix is one member's rank-1 right-hand-side correction for a term:
// panel column t of b gets −δ·(vᵀs)·u, s being column t of the term's
// history panel.
type panelFix struct {
	t  int
	up RankOne
}

func newPanelStep(sys *System, members []*scenState, pf *pencilFactor, h float64) *panelStep {
	n, w := sys.N(), len(members)
	g := &panelStep{sys: sys, members: members, pf: pf, b: mat.NewDense(n, w), scratch: pf.newPanelScratch(w),
		shiftP: mat.NewDense(n, w), uP: mat.NewDense(sys.Inputs(), w), acc: make([]float64, w),
		hist: make([]*panelIntHistory, len(sys.Terms)), fixes: make([][]panelFix, len(sys.Terms))}
	for i := 0; i < n; i++ {
		row := g.shiftP.Row(i)
		for t, st := range members {
			row[t] = st.shift[i]
		}
	}
	for k, t := range sys.Terms {
		if p := int(t.Order); !isExactZero(t.Order) {
			g.hist[k] = newPanelIntHistory(p, h, n, w)
			g.maxLag = max(g.maxLag, p)
		}
	}
	for t, st := range members {
		for _, up := range st.ups {
			if g.hist[up.Term] != nil {
				g.fixes[up.Term] = append(g.fixes[up.Term], panelFix{t: t, up: up})
			}
		}
	}
	for i := 0; i <= g.maxLag; i++ {
		g.xpool = append(g.xpool, mat.NewDense(n, w))
	}
	return g
}

func (g *panelStep) column(j int, tj float64, tiers *[numTiers]int) (int, error) {
	w := len(g.members)
	// rhs panel = shift + B·u_j − Σ_k E_k·s_j⁽ᵏ⁾, assembled panel-wide.
	copy(g.b.Data(), g.shiftP.Data())
	for c := 0; c < g.uP.Rows(); c++ {
		urow := g.uP.Row(c)
		for t, st := range g.members {
			urow[t] = st.uc.Row(c)[j]
		}
	}
	g.sys.B.MulPanelAdd(1, g.uP, g.b, g.acc)
	bd := g.b.Data()
	for k, t := range g.sys.Terms {
		if g.hist[k] == nil {
			continue
		}
		s := g.hist[k].current(g.xlags)
		t.Coeff.MulPanelAdd(-1, s, g.b, g.acc)
		sd := s.Data()
		for _, f := range g.fixes[k] {
			// scenState.rhs's U.ScatterAdd(−(δ·V.Dot(s)), b) on column f.t:
			// the same products and sums in the same order.
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

// replay rebuilds the group's panel history state through column j0,
// mirroring column minus the solve: the committed columns are gathered from
// the checkpointed slabs instead.
func (g *panelStep) replay(j0 int) error {
	w := len(g.members)
	for j := 0; j < j0; j++ {
		for _, ph := range g.hist {
			if ph != nil {
				ph.current(g.xlags)
			}
		}
		xcur := g.takePanel()
		xd := xcur.Data()
		for t, st := range g.members {
			for i, v := range st.x(j) {
				xd[i*w+t] = v
			}
		}
		g.advance(xcur)
	}
	return nil
}

// panelIntHistory is intHistory at scenario-panel granularity: the same
// p-term recurrence with every vector operation applied to an n×w panel
// whose columns are the group's scenarios. Since panel ops are element-wise
// with no cross-column interaction, each column reproduces the scalar
// recurrence bit for bit. Ring buffers rotate pointers instead of copying:
// current() claims a panel from the pool, advance() pushes it into the lag
// ring and recycles the evicted panel.
type panelIntHistory struct {
	p     int
	gamma []float64
	binom []float64
	ss    []*mat.Dense // previous sum panels, newest first
	pool  []*mat.Dense // spare panels (p+1 total in circulation)
	s     *mat.Dense   // s_j panel between current() and advance()
}

func newPanelIntHistory(p int, h float64, n, w int) *panelIntHistory {
	ih := newIntHistory(p, h, n)
	ph := &panelIntHistory{p: p, gamma: ih.gamma, binom: ih.binom}
	for i := 0; i <= p; i++ {
		ph.pool = append(ph.pool, mat.NewDense(n, w))
	}
	return ph
}

// current computes the s_j panel from the group's solution-lag panels,
// mirroring intHistory.current term for term (including the γ zero skip).
func (ph *panelIntHistory) current(xlags []*mat.Dense) *mat.Dense {
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
