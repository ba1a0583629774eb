package core_test

import (
	"math"
	"testing"

	"opmsim/internal/circuit"
	"opmsim/internal/core"
	"opmsim/internal/netgen"
	"opmsim/internal/waveform"
)

// The shared Woodbury basis holds one column per distinct update vector:
// a Monte-Carlo sweep over L elements needs L however many scenarios it
// draws, and so does the 2L+3 corner set over the same elements.
func TestParamBatchBasisColumnsSweeps(t *testing.T) {
	nl, _, err := netgen.RCLadderNetlist(12, 100, 1e-9, waveform.Step(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	model, err := nl.MNA()
	if err != nil {
		t.Fatal(err)
	}
	const L = 8
	names := netgen.PerturbableElements(nl, L)
	stamp := func(perts []circuit.Perturbation) core.Scenario {
		sc := core.Scenario{U: model.Inputs}
		d, err := nl.StampDelta(model, perts)
		if err != nil {
			t.Fatal(err)
		}
		if d.Rank() > 0 {
			sc.Delta = d
		}
		return sc
	}
	basisColumns := func(scs []core.Scenario) int {
		var rep core.SolveReport
		if _, err := core.SolveBatch(model.Sys, scs, 8, 5e-7, core.BatchOptions{
			Options: core.Options{Report: &rep}, UpdateRankLimit: 4 * L, DiscardSolutions: true,
		}); err != nil {
			t.Fatal(err)
		}
		return rep.UpdateBasisColumns
	}

	mc := make([]core.Scenario, 64)
	for s := range mc {
		perts, err := netgen.MonteCarloPerturb(nl, names, 1, s, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		mc[s] = stamp(perts)
	}
	if q := basisColumns(mc); q != L {
		t.Fatalf("Monte-Carlo sweep: %d basis columns, want %d", q, L)
	}

	corners := make([]core.Scenario, netgen.CornerCount(L))
	for c := range corners {
		perts, _, err := netgen.CornerPerturb(nl, names, c, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		corners[c] = stamp(perts)
	}
	if q := basisColumns(corners); q != L {
		t.Fatalf("corner set: %d basis columns, want %d", q, L)
	}
}

// Two auto-mode runs of one tolerance sweep resolve the same crossover rank
// from the pencil's counts and give Float64bits-identical solutions, on the
// three calibration fixtures of TestCrossoverRankCalibration: the 768-state
// power grid, the 102-state RC ladder and the 22-state rc-tol ladder. Every
// perturbed scenario (rank ≤ 8) takes the SMW path.
func TestParamBatchCrossoverDeterministic(t *testing.T) {
	grid, err := netgen.PowerGrid3D(netgen.DefaultPowerGrid())
	if err != nil {
		t.Fatal(err)
	}
	ladder := func(sections int, r, c float64) *circuit.Netlist {
		nl, _, err := netgen.RCLadderNetlist(sections, r, c, waveform.Step(1, 0))
		if err != nil {
			t.Fatal(err)
		}
		return nl
	}
	for _, fx := range []struct {
		name    string
		nl      *circuit.Netlist
		na      bool
		m, K    int
		T       float64
		workers int
		want    int
	}{
		{"grid-768", grid.Netlist, true, 64, 16, 10e-9, 0, 215},
		{"rc-ladder", ladder(100, 100, 1e-9), false, 64, 64, 5e-7, 0, 34},
		{"rc-tol", ladder(20, 1e3, 1e-6), false, 500, 16, 50e-3, 1, 11},
	} {
		model, err := fx.nl.MNA()
		if fx.na {
			model, err = fx.nl.NA()
		}
		if err != nil {
			t.Fatal(err)
		}
		names := netgen.PerturbableElements(fx.nl, 8)
		scs := make([]core.Scenario, fx.K)
		for s := range scs {
			scs[s].U = model.Inputs
			perts, err := netgen.MonteCarloPerturb(fx.nl, names, 3, s, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			if len(perts) > 0 {
				if scs[s].Delta, err = fx.nl.StampDelta(model, perts); err != nil {
					t.Fatal(err)
				}
			}
		}
		var sols [2][]*core.Solution
		for k := range sols {
			var rep core.SolveReport
			sols[k], err = core.SolveBatch(model.Sys, scs, fx.m, fx.T, core.BatchOptions{Options: core.Options{Workers: fx.workers, Report: &rep}})
			if err != nil {
				t.Fatal(err)
			}
			if rep.UpdateCrossoverRank != fx.want || rep.PencilUpdates != fx.K-1 || rep.PencilRefactors != 0 {
				t.Fatalf("%s run %d: crossover rank %d, %d updates, %d refactors; want %d, %d, 0",
					fx.name, k, rep.UpdateCrossoverRank, rep.PencilUpdates, rep.PencilRefactors, fx.want, fx.K-1)
			}
		}
		for s := range scs {
			a, b := sols[0][s].Coefficients().Data(), sols[1][s].Coefficients().Data()
			for i := range a {
				if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
					t.Fatalf("%s scenario %d value %d: %x, then %x", fx.name, s, i, math.Float64bits(a[i]), math.Float64bits(b[i]))
				}
			}
		}
	}
}
