package core_test

import (
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
