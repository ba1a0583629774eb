// Package circuit provides the circuit-modeling substrate of the simulator:
// a netlist builder for R, L, C, voltage/current sources and fractional
// constant-phase elements (CPEs), modified-nodal-analysis (MNA) assembly into
// the descriptor systems OPM consumes, the second-order nodal-analysis (NA)
// formulation of §V-B, and a SPICE-flavoured netlist parser.
package circuit

import (
	"fmt"

	"opmsim/internal/waveform"
)

// Kind enumerates element types.
type Kind int

const (
	// Resistor has Value in ohms.
	Resistor Kind = iota
	// Capacitor has Value in farads.
	Capacitor
	// Inductor has Value in henries; it adds a branch-current state.
	Inductor
	// VSource is an independent voltage source; it adds a current state and
	// one input channel.
	VSource
	// ISource is an independent current source; it adds one input channel.
	// Positive Value convention: the source drives current out of node A
	// and into node B.
	ISource
	// CPE is a constant-phase element (fractional capacitor): its branch
	// current is i = Value·dᵅ(v_a − v_b)/dtᵅ with α = Order. CPEs model
	// supercapacitors, lossy dielectrics and the fractional transmission
	// lines of §V-A.
	CPE
	// VCCS is a voltage-controlled current source (SPICE "G" card): a
	// current Value·(v_c − v_d) flows from NodeA to NodeB.
	VCCS
	// VCVS is a voltage-controlled voltage source (SPICE "E" card):
	// v_a − v_b = Value·(v_c − v_d); it adds a branch-current state.
	VCVS
	// Diode is an exponential junction diode (anode NodeA, cathode NodeB):
	// i = Value·(exp((v_a − v_b)/Order) − 1), with Value = Is and
	// Order = Vt. It makes the netlist nonlinear.
	Diode
)

// String names the element kind.
func (k Kind) String() string {
	switch k {
	case Resistor:
		return "R"
	case Capacitor:
		return "C"
	case Inductor:
		return "L"
	case VSource:
		return "V"
	case ISource:
		return "I"
	case CPE:
		return "P"
	case VCCS:
		return "G"
	case VCVS:
		return "E"
	case Diode:
		return "D"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Element is one netlist entry. Nodes are internal indices with 0 = ground.
type Element struct {
	Kind   Kind
	Name   string
	NodeA  int
	NodeB  int
	NodeC  int // controlling + terminal (VCCS/VCVS only)
	NodeD  int // controlling − terminal (VCCS/VCVS only)
	Value  float64
	Order  float64         // CPE only
	Source waveform.Signal // V/I sources only
}

// Netlist is an in-memory circuit description. The zero value is empty and
// ready to use; nodes are created on demand via Node.
type Netlist struct {
	elements  []Element
	couplings []Coupling
	nodeNames []string       // index 1.. → name; ground is index 0
	nodeIdx   map[string]int // name → index
	names     map[string]int // element name → index in elements; coupling name → −1
}

// New returns an empty netlist.
func New() *Netlist {
	return &Netlist{
		nodeNames: []string{"0"},
		nodeIdx:   map[string]int{"0": 0, "gnd": 0, "GND": 0},
		names:     map[string]int{},
	}
}

// Node returns the index of the named node, creating it if necessary.
// "0", "gnd" and "GND" denote ground (index 0).
func (n *Netlist) Node(name string) int {
	if idx, ok := n.nodeIdx[name]; ok {
		return idx
	}
	idx := len(n.nodeNames)
	n.nodeNames = append(n.nodeNames, name)
	n.nodeIdx[name] = idx
	return idx
}

// NumNodes returns the number of non-ground nodes.
func (n *Netlist) NumNodes() int { return len(n.nodeNames) - 1 }

// NodeName returns the name of node idx.
func (n *Netlist) NodeName(idx int) string { return n.nodeNames[idx] }

// Elements returns the element list (a view).
func (n *Netlist) Elements() []Element { return n.elements }

// Element returns the element named name; false when no element has that
// name (coupling names included).
func (n *Netlist) Element(name string) (Element, bool) {
	if i, ok := n.names[name]; ok && i >= 0 {
		return n.elements[i], true
	}
	return Element{}, false
}

func (n *Netlist) add(e Element) error {
	if e.Name == "" {
		return fmt.Errorf("circuit: element needs a name")
	}
	if _, dup := n.names[e.Name]; dup {
		return fmt.Errorf("circuit: duplicate element name %q", e.Name)
	}
	if e.NodeA < 0 || e.NodeA >= len(n.nodeNames) || e.NodeB < 0 || e.NodeB >= len(n.nodeNames) {
		return fmt.Errorf("circuit: element %q references unknown node", e.Name)
	}
	if e.NodeA == e.NodeB {
		return fmt.Errorf("circuit: element %q is shorted (both terminals on node %d)", e.Name, e.NodeA)
	}
	n.names[e.Name] = len(n.elements)
	n.elements = append(n.elements, e)
	return nil
}

// AddR adds a resistor of r ohms between nodes a and b.
func (n *Netlist) AddR(name string, a, b int, r float64) error {
	if r <= 0 {
		return fmt.Errorf("circuit: resistor %q must have positive resistance, got %g", name, r)
	}
	return n.add(Element{Kind: Resistor, Name: name, NodeA: a, NodeB: b, Value: r})
}

// AddC adds a capacitor of c farads between nodes a and b.
func (n *Netlist) AddC(name string, a, b int, c float64) error {
	if c <= 0 {
		return fmt.Errorf("circuit: capacitor %q must have positive capacitance, got %g", name, c)
	}
	return n.add(Element{Kind: Capacitor, Name: name, NodeA: a, NodeB: b, Value: c})
}

// AddL adds an inductor of l henries between nodes a and b.
func (n *Netlist) AddL(name string, a, b int, l float64) error {
	if l <= 0 {
		return fmt.Errorf("circuit: inductor %q must have positive inductance, got %g", name, l)
	}
	return n.add(Element{Kind: Inductor, Name: name, NodeA: a, NodeB: b, Value: l})
}

// AddV adds a voltage source with positive terminal a, driven by src.
func (n *Netlist) AddV(name string, a, b int, src waveform.Signal) error {
	if src == nil {
		return fmt.Errorf("circuit: voltage source %q needs a signal", name)
	}
	return n.add(Element{Kind: VSource, Name: name, NodeA: a, NodeB: b, Source: src})
}

// AddI adds a current source pushing current from node a to node b through
// itself (i.e. out of a, into b), driven by src.
func (n *Netlist) AddI(name string, a, b int, src waveform.Signal) error {
	if src == nil {
		return fmt.Errorf("circuit: current source %q needs a signal", name)
	}
	return n.add(Element{Kind: ISource, Name: name, NodeA: a, NodeB: b, Source: src})
}

// AddCPE adds a constant-phase element with pseudo-capacitance c and
// fractional order alpha in (0, 2).
func (n *Netlist) AddCPE(name string, a, b int, c, alpha float64) error {
	if c <= 0 {
		return fmt.Errorf("circuit: CPE %q must have positive pseudo-capacitance, got %g", name, c)
	}
	if alpha <= 0 || alpha >= 2 {
		return fmt.Errorf("circuit: CPE %q order must be in (0,2), got %g", name, alpha)
	}
	return n.add(Element{Kind: CPE, Name: name, NodeA: a, NodeB: b, Value: c, Order: alpha})
}

// Coupling is a mutual-inductance declaration between two named inductors:
// M = K·√(L₁·L₂), |K| < 1.
type Coupling struct {
	Name   string
	L1, L2 string
	K      float64
}

// AddK declares mutual coupling K between the two named inductors. The
// inductors may be added before or after the coupling; existence is checked
// at MNA assembly.
func (n *Netlist) AddK(name, l1, l2 string, k float64) error {
	if name == "" {
		return fmt.Errorf("circuit: coupling needs a name")
	}
	if _, dup := n.names[name]; dup {
		return fmt.Errorf("circuit: duplicate element name %q", name)
	}
	if l1 == l2 {
		return fmt.Errorf("circuit: coupling %q references the same inductor twice", name)
	}
	if k <= -1 || k >= 1 || isExactZero(k) {
		return fmt.Errorf("circuit: coupling %q needs 0 < |K| < 1, got %g", name, k)
	}
	n.names[name] = -1
	n.couplings = append(n.couplings, Coupling{Name: name, L1: l1, L2: l2, K: k})
	return nil
}

// Couplings returns the declared mutual inductances.
func (n *Netlist) Couplings() []Coupling { return n.couplings }

// AddVCCS adds a voltage-controlled current source: gm·(v_c − v_d) flows
// from node a to node b.
func (n *Netlist) AddVCCS(name string, a, b, c, d int, gm float64) error {
	if err := n.checkCtrl(name, c, d); err != nil {
		return err
	}
	return n.add(Element{Kind: VCCS, Name: name, NodeA: a, NodeB: b, NodeC: c, NodeD: d, Value: gm})
}

// AddVCVS adds a voltage-controlled voltage source:
// v_a − v_b = gain·(v_c − v_d).
func (n *Netlist) AddVCVS(name string, a, b, c, d int, gain float64) error {
	if err := n.checkCtrl(name, c, d); err != nil {
		return err
	}
	return n.add(Element{Kind: VCVS, Name: name, NodeA: a, NodeB: b, NodeC: c, NodeD: d, Value: gain})
}

func (n *Netlist) checkCtrl(name string, c, d int) error {
	if c < 0 || c >= len(n.nodeNames) || d < 0 || d >= len(n.nodeNames) {
		return fmt.Errorf("circuit: controlled source %q references unknown controlling node", name)
	}
	if c == d {
		return fmt.Errorf("circuit: controlled source %q has identical controlling terminals", name)
	}
	return nil
}

// Stats summarizes the netlist contents.
type Stats struct {
	Nodes, R, C, L, V, I, CPE, VCCS, VCVS, D int
}

// Stats returns element counts.
func (n *Netlist) Stats() Stats {
	s := Stats{Nodes: n.NumNodes()}
	for _, e := range n.elements {
		switch e.Kind {
		case Resistor:
			s.R++
		case Capacitor:
			s.C++
		case Inductor:
			s.L++
		case VSource:
			s.V++
		case ISource:
			s.I++
		case CPE:
			s.CPE++
		case VCCS:
			s.VCCS++
		case VCVS:
			s.VCVS++
		case Diode:
			s.D++
		}
	}
	return s
}
