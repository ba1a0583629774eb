package netgen

import (
	"fmt"

	"opmsim/internal/circuit"
)

// Monte-Carlo component sampling: the counter-based RNG behind the sweep
// driver's scenario generation. Each perturbed value is a pure function of
// (seed, scenario, element index) — no sequential generator state — so
// scenario chunks can be generated in any order, restarted, or re-generated
// for a spot-check and always produce bit-identical values. That, plus the
// deterministic fold order of waveform.Envelope, is what makes "same seed →
// Float64bits-identical envelopes" hold end to end.

// splitmix64 is the canonical SplitMix64 finalizer (Steele et al.,
// "Fast Splittable Pseudorandom Number Generators"): one Weyl-sequence step
// followed by a bijective avalanche mix. The same routine drives the serve
// layer's retry jitter; it is tiny enough that keeping the solver-side copy
// local beats exporting an RNG dependency between unrelated packages.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mcUniform returns the uniform [0,1) variate for (seed, scenario, elem):
// the seed and scenario select a stream, the element index a position in it,
// each separated by a full avalanche so neighbouring scenarios/elements are
// statistically independent. The top 53 bits become the float, the standard
// exact-dyadic construction.
func mcUniform(seed uint64, scenario, elem int) float64 {
	z := splitmix64(seed ^ 0x4d43 /* "MC" */ ^ uint64(scenario))
	z = splitmix64(z + uint64(elem))
	return float64(z>>11) / (1 << 53)
}

// MonteCarloPerturb samples scenario's component values: each named element's
// nominal value v becomes v·(1+tol·(2u−1)) with u uniform in [0,1) — a
// symmetric ±tol relative tolerance band, the standard component-tolerance
// model. Element order in names fixes the RNG keying, so pass the same slice
// for every scenario. Scenario 0 by convention is the nominal run: it returns
// no perturbations, giving every sweep an exact reference waveform.
func MonteCarloPerturb(n *circuit.Netlist, names []string, seed uint64, scenario int, tol float64) ([]circuit.Perturbation, error) {
	if tol < 0 || tol >= 1 {
		return nil, fmt.Errorf("netgen: montecarlo tolerance %g outside [0,1)", tol)
	}
	if scenario < 0 {
		return nil, fmt.Errorf("netgen: montecarlo scenario index %d negative", scenario)
	}
	if scenario == 0 || !(tol > 0) || len(names) == 0 {
		return nil, nil
	}
	perts := make([]circuit.Perturbation, 0, len(names))
	for i, name := range names {
		e, ok := n.Element(name)
		if !ok {
			return nil, fmt.Errorf("netgen: montecarlo element %q not in netlist", name)
		}
		u := mcUniform(seed, scenario, i)
		perts = append(perts, circuit.Perturbation{Name: name, Value: e.Value * (1 + tol*(2*u-1))})
	}
	return perts, nil
}

// PerturbableElements lists the value-perturbable element names of a netlist
// (resistors, capacitors, inductors, CPEs — skipping coupled inductors, which
// StampDelta rejects) in netlist order, capped at limit (≤0 = no cap). The
// sweep driver uses it as the default "perturb everything" element set.
func PerturbableElements(n *circuit.Netlist, limit int) []string {
	coupled := map[string]bool{}
	for _, cp := range n.Couplings() {
		coupled[cp.L1] = true
		coupled[cp.L2] = true
	}
	var names []string
	for _, e := range n.Elements() {
		switch e.Kind {
		case circuit.Resistor, circuit.Capacitor, circuit.CPE:
		case circuit.Inductor:
			if coupled[e.Name] {
				continue
			}
		default:
			continue
		}
		names = append(names, e.Name)
		if limit > 0 && len(names) >= limit {
			break
		}
	}
	return names
}

// Corner enumeration: the deterministic worst-case companion to the
// Monte-Carlo sampler. For L perturbable elements the corner set has
// 2L + 3 scenarios — the nominal circuit, each element alone at its +tol and
// −tol extreme (rank-1 pencil deltas, the ideal workload for the SMW update
// path), and the two global corners with every element simultaneously high
// or low. CornerCount and CornerPerturb share the indexing so sweep drivers
// can chunk corners like any other scenario stream.

// CornerCount returns the scenario count of the corner set over L elements.
func CornerCount(numElements int) int { return 2*numElements + 3 }

// CornerPerturb returns the perturbations and a human-readable label for
// corner index c of the corner set over names: 0 is the nominal circuit
// (no perturbations), 1..2L the per-element ± extremes (odd = +tol,
// even = −tol of element (c−1)/2), 2L+1 / 2L+2 the all-high / all-low
// global corners.
func CornerPerturb(n *circuit.Netlist, names []string, c int, tol float64) ([]circuit.Perturbation, string, error) {
	if tol < 0 || tol >= 1 {
		return nil, "", fmt.Errorf("netgen: corner tolerance %g outside [0,1)", tol)
	}
	L := len(names)
	if c < 0 || c >= CornerCount(L) {
		return nil, "", fmt.Errorf("netgen: corner index %d outside [0,%d)", c, CornerCount(L))
	}
	if c == 0 {
		return nil, "nominal", nil
	}
	value := func(name string, sign float64) (circuit.Perturbation, error) {
		e, ok := n.Element(name)
		if !ok {
			return circuit.Perturbation{}, fmt.Errorf("netgen: corner element %q not in netlist", name)
		}
		return circuit.Perturbation{Name: name, Value: e.Value * (1 + sign*tol)}, nil
	}
	if c <= 2*L {
		elem, sign, tag := names[(c-1)/2], 1.0, "+"
		if (c-1)%2 == 1 {
			sign, tag = -1, "-"
		}
		p, err := value(elem, sign)
		if err != nil {
			return nil, "", err
		}
		return []circuit.Perturbation{p}, elem + tag, nil
	}
	sign, label := 1.0, "all+"
	if c == 2*L+2 {
		sign, label = -1, "all-"
	}
	perts := make([]circuit.Perturbation, 0, L)
	for _, name := range names {
		p, err := value(name, sign)
		if err != nil {
			return nil, "", err
		}
		perts = append(perts, p)
	}
	return perts, label, nil
}
