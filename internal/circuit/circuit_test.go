package circuit

import (
	"math"
	"testing"

	"opmsim/internal/core"
	"opmsim/internal/specfn"
	"opmsim/internal/transient"
	"opmsim/internal/waveform"
)

// Element looks names up in O(1): every added element, by name, with its
// stored fields; unknown names, rejected elements and coupling names miss,
// and a coupling name still counts as taken.
func TestNetlistElementLookup(t *testing.T) {
	n := New()
	a, b := n.Node("a"), n.Node("b")
	for _, add := range []error{
		n.AddR("R1", a, b, 100), n.AddL("L1", a, 0, 1e-6), n.AddL("L2", b, 0, 2e-6),
		n.AddK("K1", "L1", "L2", 0.5), n.AddC("C1", b, 0, 1e-9),
	} {
		if add != nil {
			t.Fatal(add)
		}
	}
	if err := n.AddR("R9", a, a, 1); err == nil {
		t.Fatal("accepted shorted element")
	}
	for _, want := range n.Elements() {
		got, ok := n.Element(want.Name)
		if !ok || got.Kind != want.Kind || got.NodeA != want.NodeA || got.NodeB != want.NodeB || math.Float64bits(got.Value) != math.Float64bits(want.Value) {
			t.Fatalf("Element(%q) = %+v, %v; want %+v", want.Name, got, ok, want)
		}
	}
	for _, name := range []string{"K1", "R9", "nope", ""} {
		if _, ok := n.Element(name); ok {
			t.Fatalf("Element(%q) found an element", name)
		}
	}
	if err := n.AddR("K1", a, b, 1); err == nil {
		t.Fatal("accepted an element named like a coupling")
	}
}

func TestNetlistBuilderValidation(t *testing.T) {
	n := New()
	a, b := n.Node("a"), n.Node("b")
	if err := n.AddR("R1", a, b, 100); err != nil {
		t.Fatal(err)
	}
	if err := n.AddR("R1", a, b, 100); err == nil {
		t.Fatal("accepted duplicate name")
	}
	if err := n.AddR("R2", a, a, 100); err == nil {
		t.Fatal("accepted shorted element")
	}
	if err := n.AddR("R3", a, b, -5); err == nil {
		t.Fatal("accepted negative resistance")
	}
	if err := n.AddC("C1", a, b, 0); err == nil {
		t.Fatal("accepted zero capacitance")
	}
	if err := n.AddL("L1", a, b, -1); err == nil {
		t.Fatal("accepted negative inductance")
	}
	if err := n.AddV("V1", a, 0, nil); err == nil {
		t.Fatal("accepted nil source signal")
	}
	if err := n.AddCPE("P1", a, b, 1, 2.5); err == nil {
		t.Fatal("accepted CPE order outside (0,2)")
	}
	if err := n.AddCPE("P2", a, b, -1, 0.5); err == nil {
		t.Fatal("accepted negative pseudo-capacitance")
	}
}

func TestNodeIdentity(t *testing.T) {
	n := New()
	if n.Node("x") != n.Node("x") {
		t.Fatal("same name produced different nodes")
	}
	if n.Node("0") != 0 || n.Node("gnd") != 0 || n.Node("GND") != 0 {
		t.Fatal("ground aliases broken")
	}
	if n.NumNodes() != 1 {
		t.Fatalf("NumNodes = %d, want 1", n.NumNodes())
	}
	if n.NodeName(1) != "x" {
		t.Fatalf("NodeName(1) = %q", n.NodeName(1))
	}
}

// RC lowpass driven by a step voltage source: v_C = 1 − e^{−t/RC}.
func TestMNARCLowpass(t *testing.T) {
	n := New()
	in, out := n.Node("in"), n.Node("out")
	r, c := 1e3, 1e-6 // τ = 1 ms
	if err := n.AddV("V1", in, 0, waveform.Step(1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := n.AddR("R1", in, out, r); err != nil {
		t.Fatal(err)
	}
	if err := n.AddC("C1", out, 0, c); err != nil {
		t.Fatal(err)
	}
	mna, err := n.MNA()
	if err != nil {
		t.Fatal(err)
	}
	// States: v(in), v(out), i(V1).
	if len(mna.StateNames) != 3 {
		t.Fatalf("states = %v", mna.StateNames)
	}
	m, T := 512, 5e-3
	sol, err := core.Solve(mna.Sys, mna.Inputs, m, T, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tau := r * c
	h := T / float64(m)
	for j := 5; j < m; j += 37 {
		tt := (float64(j) + 0.5) * h
		want := 1 - math.Exp(-tt/tau)
		if got := sol.StateAt(1, tt); math.Abs(got-want) > 2e-3 {
			t.Fatalf("v_out(%g) = %g, want %g", tt, got, want)
		}
		// The input node must track the source exactly.
		if got := sol.StateAt(0, tt); math.Abs(got-1) > 1e-9 {
			t.Fatalf("v_in(%g) = %g, want 1", tt, got)
		}
	}
}

// Current source into parallel RC: v = R·(1 − e^{−t/RC}).
func TestMNACurrentSourceRC(t *testing.T) {
	n := New()
	nd := n.Node("n1")
	r, c := 2.0, 0.5 // τ = 1 s
	if err := n.AddI("I1", 0, nd, waveform.Step(1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := n.AddR("R1", nd, 0, r); err != nil {
		t.Fatal(err)
	}
	if err := n.AddC("C1", nd, 0, c); err != nil {
		t.Fatal(err)
	}
	mna, err := n.MNA()
	if err != nil {
		t.Fatal(err)
	}
	m, T := 512, 4.0
	sol, err := core.Solve(mna.Sys, mna.Inputs, m, T, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := T / float64(m)
	for j := 3; j < m; j += 41 {
		tt := (float64(j) + 0.5) * h
		want := r * (1 - math.Exp(-tt/(r*c)))
		if got := sol.StateAt(0, tt); math.Abs(got-want) > 4e-3 {
			t.Fatalf("v(%g) = %g, want %g", tt, got, want)
		}
	}
}

// Series RLC driven by a step: underdamped oscillation of the capacitor
// voltage, checking the inductor-current state plumbing.
func TestMNASeriesRLC(t *testing.T) {
	n := New()
	a, b, cN := n.Node("a"), n.Node("b"), n.Node("c")
	rv, lv, cv := 1.0, 1.0, 0.25
	if err := n.AddV("V1", a, 0, waveform.Step(1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := n.AddR("R1", a, b, rv); err != nil {
		t.Fatal(err)
	}
	if err := n.AddL("L1", b, cN, lv); err != nil {
		t.Fatal(err)
	}
	if err := n.AddC("C1", cN, 0, cv); err != nil {
		t.Fatal(err)
	}
	mna, err := n.MNA()
	if err != nil {
		t.Fatal(err)
	}
	m, T := 2048, 10.0
	sol, err := core.Solve(mna.Sys, mna.Inputs, m, T, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Analytic underdamped step response: ω₀ = 1/√(LC) = 2, ζ = R/2·√(C/L) = 0.25.
	w0 := 1 / math.Sqrt(lv*cv)
	zeta := rv / 2 * math.Sqrt(cv/lv)
	wd := w0 * math.Sqrt(1-zeta*zeta)
	vc := func(tt float64) float64 {
		return 1 - math.Exp(-zeta*w0*tt)*(math.Cos(wd*tt)+zeta*w0/wd*math.Sin(wd*tt))
	}
	h := T / float64(m)
	for j := 10; j < m; j += 111 {
		tt := (float64(j) + 0.5) * h
		if got := sol.StateAt(2, tt); math.Abs(got-vc(tt)) > 1e-2 {
			t.Fatalf("v_C(%g) = %g, want %g", tt, got, vc(tt))
		}
	}
}

// Fractional circuit: current step into R ∥ CPE gives the Mittag-Leffler
// relaxation v(t) = R·(1 − E_α(−tᵅ/(R·C₀))).
func TestMNAFractionalCPE(t *testing.T) {
	n := New()
	nd := n.Node("n1")
	r, c0, alpha := 1.0, 1.0, 0.5
	if err := n.AddI("I1", 0, nd, waveform.Step(1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := n.AddR("R1", nd, 0, r); err != nil {
		t.Fatal(err)
	}
	if err := n.AddCPE("P1", nd, 0, c0, alpha); err != nil {
		t.Fatal(err)
	}
	mna, err := n.MNA()
	if err != nil {
		t.Fatal(err)
	}
	if got := mna.Sys.MaxOrder(); got != alpha {
		t.Fatalf("MaxOrder = %g, want %g", got, alpha)
	}
	m, T := 2048, 2.0
	sol, err := core.Solve(mna.Sys, mna.Inputs, m, T, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []float64{0.3, 0.7, 1.2, 1.8} {
		ml, err := specfn.MittagLeffler(alpha, -math.Pow(tt, alpha)/(r*c0))
		if err != nil {
			t.Fatal(err)
		}
		want := r * (1 - ml)
		if got := sol.StateAt(0, tt); math.Abs(got-want) > 3e-2*(1+want) {
			t.Fatalf("fractional v(%g) = %g, want %g", tt, got, want)
		}
	}
}

// MNA DAE export: OPM and trapezoidal on the exported (E, A, B) agree.
func TestMNADAEExportMatchesTransient(t *testing.T) {
	n := New()
	in, out := n.Node("in"), n.Node("out")
	if err := n.AddV("V1", in, 0, waveform.Sine(1, 100, 0)); err != nil {
		t.Fatal(err)
	}
	if err := n.AddR("R1", in, out, 1e3); err != nil {
		t.Fatal(err)
	}
	if err := n.AddC("C1", out, 0, 1e-6); err != nil {
		t.Fatal(err)
	}
	mna, err := n.MNA()
	if err != nil {
		t.Fatal(err)
	}
	e, a, b, err := mna.DAE()
	if err != nil {
		t.Fatal(err)
	}
	T := 20e-3
	res, err := transient.Simulate(e, a, b, mna.Inputs, T, T/4096, transient.Trapezoidal, transient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.Solve(mna.Sys, mna.Inputs, 4096, T, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Compare at OPM interval midpoints (BPF coefficients are interval
	// averages, so edge sampling would show a spurious O(h/2) offset).
	h := T / 4096
	for _, j := range []int{600, 1800, 3000} {
		tt := (float64(j) + 0.5) * h
		want := res.SampleState(1, []float64{tt})[0]
		if got := sol.StateAt(1, tt); math.Abs(got-want) > 1e-4 {
			t.Fatalf("OPM vs trapezoidal at %g: %g vs %g", tt, got, want)
		}
	}
}

func TestDAEExportRejectsFractional(t *testing.T) {
	n := New()
	nd := n.Node("n1")
	_ = n.AddI("I1", 0, nd, waveform.Step(1, 0))
	_ = n.AddCPE("P1", nd, 0, 1, 0.5)
	mna, err := n.MNA()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := mna.DAE(); err == nil {
		t.Fatal("DAE export accepted fractional netlist")
	}
}

// NA and MNA formulations of the same RLC network agree (§V-B equivalence).
func TestNAMatchesMNA(t *testing.T) {
	n := New()
	n1, n2 := n.Node("n1"), n.Node("n2")
	// Smooth input so the differentiated NA input is benign.
	src := waveform.Sine(1e-3, 50, 0)
	if err := n.AddI("I1", 0, n1, src); err != nil {
		t.Fatal(err)
	}
	if err := n.AddR("R1", n1, 0, 100); err != nil {
		t.Fatal(err)
	}
	if err := n.AddC("C1", n1, 0, 1e-6); err != nil {
		t.Fatal(err)
	}
	if err := n.AddL("L1", n1, n2, 1e-3); err != nil {
		t.Fatal(err)
	}
	if err := n.AddR("R2", n2, 0, 50); err != nil {
		t.Fatal(err)
	}
	if err := n.AddC("C2", n2, 0, 2e-6); err != nil {
		t.Fatal(err)
	}
	na, err := n.NA()
	if err != nil {
		t.Fatal(err)
	}
	if na.Sys.N() != 2 {
		t.Fatalf("NA states = %d, want 2", na.Sys.N())
	}
	mna, err := n.MNA()
	if err != nil {
		t.Fatal(err)
	}
	if mna.Sys.N() != 3 { // two nodes + inductor current
		t.Fatalf("MNA states = %d, want 3", mna.Sys.N())
	}
	m, T := 2048, 40e-3
	solNA, err := core.Solve(na.Sys, na.Inputs, m, T, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	solMNA, err := core.Solve(mna.Sys, mna.Inputs, m, T, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []float64{5e-3, 15e-3, 30e-3} {
		for i := 0; i < 2; i++ {
			a, b := solNA.StateAt(i, tt), solMNA.StateAt(i, tt)
			if math.Abs(a-b) > 2e-3*(1+math.Abs(b)) {
				t.Fatalf("NA vs MNA node %d at t=%g: %g vs %g", i, tt, a, b)
			}
		}
	}
}

func TestNARejectsVSourceAndCPE(t *testing.T) {
	n := New()
	a := n.Node("a")
	_ = n.AddV("V1", a, 0, waveform.Step(1, 0))
	_ = n.AddR("R1", a, 0, 1)
	if _, err := n.NA(); err == nil {
		t.Fatal("NA accepted voltage source")
	}
	n2 := New()
	b := n2.Node("b")
	_ = n2.AddI("I1", 0, b, waveform.Step(1, 0))
	_ = n2.AddCPE("P1", b, 0, 1, 0.5)
	if _, err := n2.NA(); err == nil {
		t.Fatal("NA accepted CPE")
	}
}

func TestMNAValidationErrors(t *testing.T) {
	if _, err := New().MNA(); err == nil {
		t.Fatal("MNA accepted empty netlist")
	}
	n := New()
	a := n.Node("a")
	_ = n.AddR("R1", a, 0, 1)
	if _, err := n.MNA(); err == nil {
		t.Fatal("MNA accepted netlist without sources")
	}
}

func TestVoltageSelector(t *testing.T) {
	n := New()
	a, b := n.Node("a"), n.Node("b")
	_ = n.AddV("V1", a, 0, waveform.Step(1, 0))
	_ = n.AddR("R1", a, b, 1)
	_ = n.AddC("C1", b, 0, 1)
	mna, err := n.MNA()
	if err != nil {
		t.Fatal(err)
	}
	c, err := mna.VoltageSelector(b)
	if err != nil {
		t.Fatal(err)
	}
	if c.R != 1 || c.At(0, 1) != 1 {
		t.Fatal("VoltageSelector picked wrong entry")
	}
	if _, err := mna.VoltageSelector(0); err == nil {
		t.Fatal("VoltageSelector accepted ground")
	}
}

func TestStats(t *testing.T) {
	n := New()
	a, b := n.Node("a"), n.Node("b")
	_ = n.AddR("R1", a, b, 1)
	_ = n.AddC("C1", b, 0, 1)
	_ = n.AddL("L1", a, 0, 1)
	_ = n.AddV("V1", a, 0, waveform.Step(1, 0))
	_ = n.AddI("I1", 0, b, waveform.Step(1, 0))
	_ = n.AddCPE("P1", a, b, 1, 0.5)
	s := n.Stats()
	if s != (Stats{Nodes: 2, R: 1, C: 1, L: 1, V: 1, I: 1, CPE: 1}) {
		t.Fatalf("Stats = %+v", s)
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{Resistor: "R", Capacitor: "C", Inductor: "L", VSource: "V", ISource: "I", CPE: "P"}
	for k, want := range names {
		if k.String() != want {
			t.Fatalf("Kind %d String = %q", int(k), k.String())
		}
	}
	if Kind(42).String() == "" {
		t.Fatal("unknown kind String empty")
	}
}
