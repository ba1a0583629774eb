package sparse_test

import (
	"testing"

	"opmsim/internal/core"
	"opmsim/internal/netgen"
	"opmsim/internal/sparse"
)

// TestAMDFillNotAboveRCMOnPowerGrids factors the leading NA pencils of the
// netgen power grids under both orderings: AMD must never leave more fill
// than RCM. At the time of writing RCM leaves 52,398 nonzeros (L+U) on the
// 768-state DefaultPowerGrid pencil and 1,123,455 on the 6075-state grid.
func TestAMDFillNotAboveRCMOnPowerGrids(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  netgen.PowerGridConfig
		m    int
	}{
		{"default-768", netgen.DefaultPowerGrid(), 64},
		{"grid-6075", netgen.PowerGridN(6000), 128},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := netgen.PowerGrid3D(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			na, err := g.Netlist.NA()
			if err != nil {
				t.Fatal(err)
			}
			a, _, err := core.LeadingPencil(na.Sys, tc.m, 10e-9)
			if err != nil {
				t.Fatal(err)
			}
			fill := func(perm []int) int {
				f, err := sparse.FactorLU(a.Permute(perm), 0.1)
				if err != nil {
					t.Fatal(err)
				}
				return f.NNZ()
			}
			amd, rcm := fill(sparse.AMD(a)), fill(sparse.RCM(a))
			if amd > rcm {
				t.Fatalf("n=%d: AMD fill %d above RCM fill %d", a.R, amd, rcm)
			}
			f, err := sparse.Factor(a, sparse.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if f.NNZFactors() != amd {
				t.Fatalf("Factor leaves %d nonzeros, its AMD order %d", f.NNZFactors(), amd)
			}
			t.Logf("n=%d: AMD fill %d, RCM fill %d", a.R, amd, rcm)
		})
	}
}
