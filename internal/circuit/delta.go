package circuit

import (
	"fmt"
	"math"
	"sort"

	"opmsim/internal/core"
	"opmsim/internal/sparse"
)

// Component-value perturbations as pencil deltas. A Monte-Carlo or corner
// sweep varies element values (R, C, L, CPE magnitude) around a nominal
// netlist; re-running MNA assembly per sample would rebuild every matrix, but
// each two-terminal value change is a rank-1 stamp: the ±v admittance pattern
// of stampPair is v·w·wᵀ for the signed incidence vector w, so changing
// v → v′ perturbs exactly one term of the assembled system by δ·w·wᵀ with
// δ the value delta in that term's units (conductance for resistors, farads
// for capacitors, …). StampDelta packages those rank-1 updates as a
// core.PencilDelta that core.SolveBatch serves through the SMW update tier —
// or, past the crossover rank, through a single sparse refactorization —
// without ever re-assembling the netlist.

// Perturbation names one element whose value differs from the netlist's
// nominal in a scenario. Value is the element's new value in the same units
// the netlist uses (ohms, farads, henries, CPE magnitude); it must be
// positive and finite. Only the value can vary — a CPE's order α changes the
// term structure itself and is rejected.
type Perturbation struct {
	Name  string
	Value float64
}

// modelMNA/modelNA tag which stamp layout an assembled MNA carries, fixing
// which term each element kind perturbs.
const (
	modelMNA = "mna"
	modelNA  = "na"
)

// StampDelta translates element-value perturbations into the rank-1 pencil
// updates of the assembled model m (which must have been built by MNA() or
// NA() from this netlist). Perturbations that cannot change the system —
// both terminals grounded, or a value change that cancels exactly — are
// dropped, so the returned delta's Rank() can be smaller than len(perts);
// a nil-safe zero-rank delta means "nominal". Supported kinds: Resistor,
// Capacitor, Inductor, and (MNA only) CPE. Unknown names, non-positive or
// non-finite values, duplicate names, unsupported kinds, and inductors that
// participate in a mutual coupling (their K·√(L₁L₂) off-diagonals make the
// change rank-3) are errors.
func (n *Netlist) StampDelta(m *MNA, perts []Perturbation) (*core.PencilDelta, error) {
	if m == nil || m.Sys == nil {
		return nil, fmt.Errorf("circuit: StampDelta needs an assembled model")
	}
	coupled := map[string]bool{}
	for _, cp := range n.couplings {
		coupled[cp.L1] = true
		coupled[cp.L2] = true
	}
	d := &core.PencilDelta{}
	seen := map[string]bool{}
	for _, p := range perts {
		if seen[p.Name] {
			return nil, fmt.Errorf("circuit: duplicate perturbation of %q", p.Name)
		}
		seen[p.Name] = true
		e, ok := n.Element(p.Name)
		if !ok {
			return nil, fmt.Errorf("circuit: perturbation references unknown element %q", p.Name)
		}
		if !(p.Value > 0) || math.IsInf(p.Value, 0) {
			return nil, fmt.Errorf("circuit: perturbed value of %q must be positive and finite, got %g", p.Name, p.Value)
		}
		up, err := n.stampOne(m, e, p.Value)
		if err != nil {
			return nil, err
		}
		if up == nil {
			continue
		}
		if coupled[e.Name] && e.Kind == Inductor {
			return nil, fmt.Errorf("circuit: cannot perturb inductor %q: mutual coupling makes the change non-rank-1", e.Name)
		}
		d.Updates = append(d.Updates, *up)
	}
	return d, nil
}

// stampOne builds the rank-1 update for one element, or nil when the change
// cannot reach the system.
func (n *Netlist) stampOne(m *MNA, e Element, newVal float64) (*core.RankOne, error) {
	// (termOrder, delta) per kind — exactly mirroring the assembly stamps of
	// MNA() and NA().
	var order, delta float64
	incidence := true
	switch {
	case e.Kind == Resistor && m.model == modelMNA:
		order, delta = 0, 1/newVal-1/e.Value
	case e.Kind == Resistor && m.model == modelNA:
		order, delta = 1, 1/newVal-1/e.Value
	case e.Kind == Capacitor && m.model == modelMNA:
		order, delta = 1, newVal-e.Value
	case e.Kind == Capacitor && m.model == modelNA:
		order, delta = 2, newVal-e.Value
	case e.Kind == CPE && m.model == modelMNA:
		order, delta = e.Order, newVal-e.Value
	case e.Kind == Inductor && m.model == modelMNA:
		// Branch equation diagonal: stor(1).Add(l, l, L).
		order, delta, incidence = 1, newVal-e.Value, false
	case e.Kind == Inductor && m.model == modelNA:
		order, delta = 0, 1/newVal-1/e.Value
	default:
		return nil, fmt.Errorf("circuit: cannot perturb %q: kind %v is not value-perturbable in the %s model", e.Name, e.Kind, m.model)
	}
	if isExactZero(delta) {
		return nil, nil
	}
	term := -1
	for k, t := range m.Sys.Terms {
		if math.Float64bits(t.Order) == math.Float64bits(order) {
			term = k
			break
		}
	}
	if term < 0 {
		return nil, fmt.Errorf("circuit: internal: no term of order %g for perturbation of %q", order, e.Name)
	}
	var w sparse.Vec
	if incidence {
		w = incidenceVec(m.nodeOf, e.NodeA, e.NodeB)
		if w.NNZ() == 0 {
			return nil, nil // both terminals grounded (or shorted): no effect
		}
	} else {
		l, ok := m.branchIdx[e.Name]
		if !ok {
			return nil, fmt.Errorf("circuit: internal: no branch index for inductor %q", e.Name)
		}
		w = sparse.Vec{Idx: []int{l}, Val: []float64{1}}
	}
	return &core.RankOne{Term: term, Scale: delta, U: w, V: w}, nil
}

// incidenceVec builds the signed incidence vector (+1 at node a's state, −1
// at node b's) with strictly increasing indices; grounded terminals drop out,
// and a self-loop (both terminals on one node) cancels to empty.
func incidenceVec(nodeOf map[int]int, a, b int) sparse.Vec {
	type ent struct {
		idx int
		val float64
	}
	var ents []ent
	if ia, ok := nodeOf[a]; ok {
		ents = append(ents, ent{ia, 1})
	}
	if ib, ok := nodeOf[b]; ok {
		ents = append(ents, ent{ib, -1})
	}
	if len(ents) == 2 && ents[0].idx == ents[1].idx {
		return sparse.Vec{}
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].idx < ents[j].idx })
	v := sparse.Vec{Idx: make([]int, len(ents)), Val: make([]float64, len(ents))}
	for i, e := range ents {
		v.Idx[i], v.Val[i] = e.idx, e.val
	}
	return v
}
