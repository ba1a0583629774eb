package circuit

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"opmsim/internal/core"
	"opmsim/internal/sparse"
	"opmsim/internal/waveform"
)

// MNA is a modified-nodal-analysis model: a descriptor system
// Σ_k E_k·d^{α_k}x + G·x = B·u with states [node voltages; inductor
// currents; source currents].
type MNA struct {
	// Sys is the assembled system ready for the OPM or transient solvers.
	Sys *core.System
	// Inputs are the source signals, one per input channel, in element
	// order (V sources first gather their channels as encountered, then I
	// sources — in netlist order).
	Inputs []waveform.Signal
	// StateNames labels the state vector entries.
	StateNames []string
	// Nonlinear is non-nil when the netlist contains diodes; pass it to
	// core.SolveNonlinear (the linear solvers reject such systems only
	// implicitly — they would simply ignore the diodes).
	Nonlinear *DiodeNonlinearity

	numNodes  int
	nodeOf    map[int]int    // netlist node index → state index
	branchIdx map[string]int // element name → branch-current state index (MNA model)
	model     string         // "mna" or "na": which stamp layout Sys uses
}

// MNA assembles the modified-nodal-analysis model. Inductor currents and
// voltage-source currents become extra states (the DAE route of §V-B); CPEs
// contribute fractional-order storage terms.
func (n *Netlist) MNA() (*MNA, error) {
	nn := n.NumNodes()
	if nn == 0 {
		return nil, fmt.Errorf("circuit: netlist has no nodes")
	}
	// State layout.
	nodeOf := make(map[int]int, nn)
	names := make([]string, 0, nn)
	for i := 1; i <= nn; i++ {
		nodeOf[i] = i - 1
		names = append(names, "v("+n.NodeName(i)+")")
	}
	extra := nn
	branchIdx := map[string]int{}
	var inputs []waveform.Signal
	chanOf := map[string]int{}
	for _, e := range n.elements {
		switch e.Kind {
		case Inductor, VCVS:
			branchIdx[e.Name] = extra
			names = append(names, "i("+e.Name+")")
			extra++
		case VSource:
			branchIdx[e.Name] = extra
			names = append(names, "i("+e.Name+")")
			extra++
			chanOf[e.Name] = len(inputs)
			inputs = append(inputs, e.Source)
		case ISource:
			chanOf[e.Name] = len(inputs)
			inputs = append(inputs, e.Source)
		}
	}
	dim := extra
	if len(inputs) == 0 {
		return nil, fmt.Errorf("circuit: netlist has no sources")
	}

	var diodes []diodeEntry
	g := sparse.NewCOO(dim, dim)
	storage := map[float64]*sparse.COO{} // order → E_order
	stor := func(order float64) *sparse.COO {
		if s, ok := storage[order]; ok {
			return s
		}
		s := sparse.NewCOO(dim, dim)
		storage[order] = s
		return s
	}
	b := sparse.NewCOO(dim, len(inputs))

	// stampPair adds the ±v pattern of a two-terminal admittance into m.
	stampPair := func(m *sparse.COO, a, bn int, v float64) {
		if ia, ok := nodeOf[a]; ok {
			m.Add(ia, ia, v)
			if ib, ok := nodeOf[bn]; ok {
				m.Add(ia, ib, -v)
			}
		}
		if ib, ok := nodeOf[bn]; ok {
			m.Add(ib, ib, v)
			if ia, ok := nodeOf[a]; ok {
				m.Add(ib, ia, -v)
			}
		}
	}

	for _, e := range n.elements {
		switch e.Kind {
		case Resistor:
			stampPair(g, e.NodeA, e.NodeB, 1/e.Value)
		case Capacitor:
			stampPair(stor(1), e.NodeA, e.NodeB, e.Value)
		case CPE:
			stampPair(stor(e.Order), e.NodeA, e.NodeB, e.Value)
		case Inductor:
			l := branchIdx[e.Name]
			// KCL: branch current leaves NodeA, enters NodeB.
			if ia, ok := nodeOf[e.NodeA]; ok {
				g.Add(ia, l, 1)
				g.Add(l, ia, -1)
			}
			if ib, ok := nodeOf[e.NodeB]; ok {
				g.Add(ib, l, -1)
				g.Add(l, ib, 1)
			}
			// Branch: L·di/dt − (v_a − v_b) = 0.
			stor(1).Add(l, l, e.Value)
		case VSource:
			iv := branchIdx[e.Name]
			if ia, ok := nodeOf[e.NodeA]; ok {
				g.Add(ia, iv, 1)
				g.Add(iv, ia, 1)
			}
			if ib, ok := nodeOf[e.NodeB]; ok {
				g.Add(ib, iv, -1)
				g.Add(iv, ib, -1)
			}
			// Branch: v_a − v_b = u.
			b.Add(iv, chanOf[e.Name], 1)
		case ISource:
			// Current flows out of NodeA, into NodeB.
			if ia, ok := nodeOf[e.NodeA]; ok {
				b.Add(ia, chanOf[e.Name], -1)
			}
			if ib, ok := nodeOf[e.NodeB]; ok {
				b.Add(ib, chanOf[e.Name], 1)
			}
		case VCCS:
			// gm·(v_c − v_d) leaves NodeA and enters NodeB.
			stampCtrl := func(node int, sign float64) {
				idx, ok := nodeOf[node]
				if !ok {
					return
				}
				if ic, ok := nodeOf[e.NodeC]; ok {
					g.Add(idx, ic, sign*e.Value)
				}
				if id, ok := nodeOf[e.NodeD]; ok {
					g.Add(idx, id, -sign*e.Value)
				}
			}
			stampCtrl(e.NodeA, 1)
			stampCtrl(e.NodeB, -1)
		case Diode:
			stateOf := func(node int) int {
				if idx, ok := nodeOf[node]; ok {
					return idx
				}
				return -1
			}
			diodes = append(diodes, diodeEntry{
				a: stateOf(e.NodeA), b: stateOf(e.NodeB),
				is: e.Value, vt: e.Order,
			})
		case VCVS:
			br := branchIdx[e.Name]
			if ia, ok := nodeOf[e.NodeA]; ok {
				g.Add(ia, br, 1)
				g.Add(br, ia, 1)
			}
			if ib, ok := nodeOf[e.NodeB]; ok {
				g.Add(ib, br, -1)
				g.Add(br, ib, -1)
			}
			// Branch: v_a − v_b − gain·(v_c − v_d) = 0.
			if ic, ok := nodeOf[e.NodeC]; ok {
				g.Add(br, ic, -e.Value)
			}
			if id, ok := nodeOf[e.NodeD]; ok {
				g.Add(br, id, e.Value)
			}
		}
	}

	// Mutual inductances couple the branch equations:
	// L₁·di₁/dt + M·di₂/dt = v_a − v_b (and symmetrically), i.e. symmetric
	// off-diagonal entries M = K·√(L₁L₂) in the order-1 storage matrix at
	// the two branch-current rows.
	if len(n.couplings) > 0 {
		inductorVal := map[string]float64{}
		for _, e := range n.elements {
			if e.Kind == Inductor {
				inductorVal[e.Name] = e.Value
			}
		}
		for _, cp := range n.couplings {
			l1, ok1 := inductorVal[cp.L1]
			l2, ok2 := inductorVal[cp.L2]
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("circuit: coupling %q references unknown inductor", cp.Name)
			}
			mVal := cp.K * math.Sqrt(l1*l2)
			b1, b2 := branchIdx[cp.L1], branchIdx[cp.L2]
			stor(1).Add(b1, b2, mVal)
			stor(1).Add(b2, b1, mVal)
		}
	}

	// Assemble core.System: storage terms (sorted by order for determinism)
	// plus the order-0 conductance term.
	orders := make([]float64, 0, len(storage))
	for o := range storage {
		orders = append(orders, o)
	}
	sort.Float64s(orders)
	terms := make([]core.Term, 0, len(orders)+1)
	for _, o := range orders {
		terms = append(terms, core.Term{Order: o, Coeff: storage[o].ToCSR()})
	}
	if len(orders) == 0 {
		// Purely resistive network: keep the descriptor form with an
		// explicit zero E·ẋ term so the solvers treat it as a (memoryless)
		// DAE rather than rejecting it.
		terms = append(terms, core.Term{Order: 1, Coeff: sparse.NewCOO(dim, dim).ToCSR()})
	}
	terms = append(terms, core.Term{Order: 0, Coeff: g.ToCSR()})
	sys := &core.System{Terms: terms, B: b.ToCSR()}
	if err := sys.Validate(); err != nil {
		return nil, fmt.Errorf("circuit: MNA assembly: %w", err)
	}
	out := &MNA{Sys: sys, Inputs: inputs, StateNames: names, numNodes: nn, nodeOf: nodeOf, branchIdx: branchIdx, model: modelMNA}
	if len(diodes) > 0 {
		out.Nonlinear = &DiodeNonlinearity{n: dim, entries: diodes}
	}
	return out, nil
}

// DAE returns the classic descriptor triple (E, A, B) of E·ẋ = A·x + B·u for
// integer-order netlists (no CPEs): E is the order-1 storage matrix and
// A = −G. Transient baselines consume this form.
func (m *MNA) DAE() (e, a, b *sparse.CSR, err error) {
	if m.Nonlinear != nil {
		return nil, nil, nil, fmt.Errorf("circuit: DAE export impossible: netlist contains diodes (use core.SolveNonlinear)")
	}
	dim := m.Sys.N()
	e = sparse.NewCOO(dim, dim).ToCSR() // empty until found
	var g *sparse.CSR
	for _, t := range m.Sys.Terms {
		switch t.Order {
		case 0:
			g = t.Coeff
		case 1:
			e = t.Coeff
		default:
			return nil, nil, nil, fmt.Errorf("circuit: DAE export impossible: fractional term of order %g present", t.Order)
		}
	}
	if g == nil {
		return nil, nil, nil, fmt.Errorf("circuit: DAE export: no conductance term")
	}
	return e, g.Scale(-1), m.Sys.B, nil
}

// VoltageSelector builds an output matrix C selecting the voltages of the
// given netlist nodes.
func (m *MNA) VoltageSelector(nodes ...int) (*sparse.CSR, error) {
	c := sparse.NewCOO(len(nodes), m.Sys.N())
	for r, node := range nodes {
		idx, ok := m.nodeOf[node]
		if !ok {
			return nil, fmt.Errorf("circuit: node %d is ground or unknown", node)
		}
		c.Add(r, idx, 1)
	}
	return c.ToCSR(), nil
}

// SelectStates resolves state names against the state vector: a name
// matches a state label verbatim ("v(out)", "i(L1)") or as a bare node name
// ("out" → "v(out)"). It returns the state indices and their labels; no
// names select every state.
func (m *MNA) SelectStates(names []string) (idx []int, labels []string, err error) {
	if len(names) == 0 {
		idx = make([]int, len(m.StateNames))
		for i := range idx {
			idx[i] = i
		}
		return idx, append([]string(nil), m.StateNames...), nil
	}
	for _, name := range names {
		name = strings.TrimSpace(name)
		found := -1
		for i, sn := range m.StateNames {
			if sn == name || sn == "v("+name+")" {
				found = i
				break
			}
		}
		if found < 0 {
			return nil, nil, fmt.Errorf("node %q not found (known states: %s)", name, strings.Join(m.StateNames, ", "))
		}
		idx = append(idx, found)
		labels = append(labels, m.StateNames[found])
	}
	return idx, labels, nil
}

// InitialState builds a state vector from ".ic"-style node voltages (node
// name → volts); unnamed states (other nodes, branch currents) start at
// zero. Unknown node names are an error.
func (m *MNA) InitialState(ics map[string]float64) ([]float64, error) {
	x0 := make([]float64, m.Sys.N())
	for name, v := range ics {
		idx := -1
		want := "v(" + name + ")"
		for i, sn := range m.StateNames {
			if sn == want {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("circuit: .ic references unknown node %q", name)
		}
		x0[idx] = v
	}
	return x0, nil
}

// DCOperatingPoint solves the DC problem G·x + g(x) = B·u(0): all
// derivatives are zero, so capacitors and CPEs are open and inductors are
// shorts (their branch equations reduce to v_a = v_b). Nonlinear netlists
// are solved by Newton iteration. It fails if the DC system is singular —
// e.g. a node isolated by capacitors with no DC path to ground.
func (m *MNA) DCOperatingPoint() ([]float64, error) {
	var g *sparse.CSR
	for _, t := range m.Sys.Terms {
		if isExactZero(t.Order) {
			g = t.Coeff
		}
	}
	if g == nil {
		return nil, fmt.Errorf("circuit: no conductance term")
	}
	n := m.Sys.N()
	u0 := make([]float64, len(m.Inputs))
	for c, sig := range m.Inputs {
		u0[c] = sig(0)
	}
	rhs := make([]float64, n)
	m.Sys.B.MulVecAdd(1, u0, rhs)
	if m.Nonlinear == nil {
		fac, err := sparse.Factor(g, sparse.Options{Refine: true})
		if err != nil {
			return nil, fmt.Errorf("circuit: DC system singular (floating node or L-V loop?): %w", err)
		}
		x, err := fac.Solve(rhs)
		if err != nil {
			return nil, fmt.Errorf("circuit: DC solve failed: %w", err)
		}
		return x, nil
	}
	// Newton on G·x + g(x) = rhs.
	x := make([]float64, n)
	gval := make([]float64, n)
	resid := make([]float64, n)
	for it := 0; it < 100; it++ {
		for i := range resid {
			resid[i] = -rhs[i]
		}
		g.MulVecAdd(1, x, resid)
		m.Nonlinear.Eval(x, gval)
		for i := range resid {
			resid[i] += gval[i]
		}
		jac := sparse.NewCOO(n, n)
		for r := 0; r < n; r++ {
			for p := g.RowPtr[r]; p < g.RowPtr[r+1]; p++ {
				jac.Add(r, g.ColIdx[p], g.Val[p])
			}
		}
		m.Nonlinear.StampJacobian(x, jac)
		fac, err := sparse.Factor(jac.ToCSR(), sparse.Options{})
		if err != nil {
			return nil, fmt.Errorf("circuit: DC Newton Jacobian singular: %w", err)
		}
		delta, err := fac.Solve(resid)
		if err != nil {
			return nil, fmt.Errorf("circuit: DC Newton solve failed: %w", err)
		}
		nd, nx := 0.0, 0.0
		for i := range x {
			x[i] -= delta[i]
			nd += delta[i] * delta[i]
			nx += x[i] * x[i]
		}
		if nd <= 1e-24*(1+nx) {
			return x, nil
		}
	}
	return nil, fmt.Errorf("circuit: DC Newton failed to converge")
}

// NA assembles the second-order nodal-analysis model of §V-B:
//
//	C·v̈ + G·v̇ + Γ·v = B·du/dt,   Γ = Σ_L (1/L)·incidence,
//
// obtained by differentiating KCL once so inductor currents disappear. The
// states are node voltages only (size = NumNodes, versus MNA's
// NumNodes+L+V), at the price of a second-order system and differentiated
// inputs — exactly the trade the paper's power-grid experiment makes.
// Voltage sources and CPEs are not representable; only current sources are
// allowed.
func (n *Netlist) NA() (*MNA, error) {
	nn := n.NumNodes()
	if nn == 0 {
		return nil, fmt.Errorf("circuit: netlist has no nodes")
	}
	nodeOf := make(map[int]int, nn)
	names := make([]string, 0, nn)
	for i := 1; i <= nn; i++ {
		nodeOf[i] = i - 1
		names = append(names, "v("+n.NodeName(i)+")")
	}
	if len(n.couplings) > 0 {
		return nil, fmt.Errorf("circuit: NA model does not support mutual inductance (use MNA)")
	}
	nSrc := countISources(n)
	if nSrc == 0 {
		return nil, fmt.Errorf("circuit: NA model needs at least one current source")
	}
	cm := sparse.NewCOO(nn, nn)
	gm := sparse.NewCOO(nn, nn)
	gam := sparse.NewCOO(nn, nn)
	var inputs []waveform.Signal
	b := sparse.NewCOO(nn, nSrc)
	stampPair := func(m *sparse.COO, a, bn int, v float64) {
		if ia, ok := nodeOf[a]; ok {
			m.Add(ia, ia, v)
			if ib, ok := nodeOf[bn]; ok {
				m.Add(ia, ib, -v)
			}
		}
		if ib, ok := nodeOf[bn]; ok {
			m.Add(ib, ib, v)
			if ia, ok := nodeOf[a]; ok {
				m.Add(ib, ia, -v)
			}
		}
	}
	for _, e := range n.elements {
		switch e.Kind {
		case Resistor:
			stampPair(gm, e.NodeA, e.NodeB, 1/e.Value)
		case Capacitor:
			stampPair(cm, e.NodeA, e.NodeB, e.Value)
		case Inductor:
			stampPair(gam, e.NodeA, e.NodeB, 1/e.Value)
		case ISource:
			ch := len(inputs)
			inputs = append(inputs, e.Source)
			if ia, ok := nodeOf[e.NodeA]; ok {
				b.Add(ia, ch, -1)
			}
			if ib, ok := nodeOf[e.NodeB]; ok {
				b.Add(ib, ch, 1)
			}
		case VCCS:
			stampCtrlNA := func(node int, sign float64) {
				idx, ok := nodeOf[node]
				if !ok {
					return
				}
				if ic, ok := nodeOf[e.NodeC]; ok {
					gm.Add(idx, ic, sign*e.Value)
				}
				if id, ok := nodeOf[e.NodeD]; ok {
					gm.Add(idx, id, -sign*e.Value)
				}
			}
			stampCtrlNA(e.NodeA, 1)
			stampCtrlNA(e.NodeB, -1)
		case VSource:
			return nil, fmt.Errorf("circuit: NA model cannot contain voltage source %q", e.Name)
		case VCVS:
			return nil, fmt.Errorf("circuit: NA model cannot contain VCVS %q", e.Name)
		case CPE:
			return nil, fmt.Errorf("circuit: NA model cannot contain CPE %q", e.Name)
		case Diode:
			return nil, fmt.Errorf("circuit: NA model cannot contain diode %q", e.Name)
		}
	}
	if len(inputs) == 0 {
		return nil, fmt.Errorf("circuit: NA model needs at least one current source")
	}
	sys := &core.System{
		Terms: []core.Term{
			{Order: 2, Coeff: cm.ToCSR()},
			{Order: 1, Coeff: gm.ToCSR()},
			{Order: 0, Coeff: gam.ToCSR()},
		},
		B:      b.ToCSR(),
		BOrder: 1,
	}
	if err := sys.Validate(); err != nil {
		return nil, fmt.Errorf("circuit: NA assembly: %w", err)
	}
	return &MNA{Sys: sys, Inputs: inputs, StateNames: names, numNodes: nn, nodeOf: nodeOf, model: modelNA}, nil
}

func countISources(n *Netlist) int {
	c := 0
	for _, e := range n.elements {
		if e.Kind == ISource {
			c++
		}
	}
	return c
}
