package core_test

// Wiring tests for the supernodal/BBD fast tier: forced engagement must be
// visible in the SolveReport and agree with the scalar sparse tier, injected
// supernodal failures must fall through silently to sparse LU, and the
// factor cache must key on the supernodal options.

import (
	"math"
	"testing"

	"opmsim/internal/core"
	"opmsim/internal/faultinject"
	"opmsim/internal/netgen"
	"opmsim/internal/waveform"
)

// gridSystem builds a dissectable NA power-grid system of roughly n nodes.
func gridSystem(t *testing.T, n int) (*core.System, []waveform.Signal) {
	t.Helper()
	grid, err := netgen.PowerGrid3D(netgen.PowerGridN(n))
	if err != nil {
		t.Fatal(err)
	}
	na, err := grid.Netlist.NA()
	if err != nil {
		t.Fatal(err)
	}
	return na.Sys, na.Inputs
}

func solveGrid(t *testing.T, sys *core.System, u []waveform.Signal, m int, opt core.Options) [][]float64 {
	t.Helper()
	sol, err := core.Solve(sys, u, m, 10e-9, opt)
	if err != nil {
		t.Fatal(err)
	}
	x := sol.Coefficients()
	rows := make([][]float64, x.Rows())
	for i := range rows {
		rows[i] = append([]float64(nil), x.Row(i)...)
	}
	return rows
}

func TestSupernodalTierServesForcedSolve(t *testing.T) {
	sys, u := gridSystem(t, 900)
	const m = 24
	rep := &core.SolveReport{}
	rows := solveGrid(t, sys, u, m, core.Options{Supernodal: 1, Report: rep})
	if rep.TierSolves[core.TierSupernodal] != m {
		t.Fatalf("supernodal tier served %d of %d column solves; report: %+v",
			rep.TierSolves[core.TierSupernodal], m, rep.TierSolves)
	}
	if rep.Degraded() {
		t.Fatal("supernodal tier must never count as degradation")
	}
	// Same run with the tier disabled: the scalar sparse LU result is the
	// reference the fast tier must agree with.
	want := solveGrid(t, sys, u, m, core.Options{Supernodal: -1})
	scale := 0.0
	for i := range want {
		for j := range want[i] {
			if a := math.Abs(want[i][j]); a > scale {
				scale = a
			}
		}
	}
	for i := range rows {
		for j := range rows[i] {
			if math.Abs(rows[i][j]-want[i][j]) > 1e-9*(1+scale) {
				t.Fatalf("X[%d][%d] = %.17g, sparse-LU reference %.17g", i, j, rows[i][j], want[i][j])
			}
		}
	}
}

// TestSupernodalDeterministicAcrossWorkers extends the solver's determinism
// contract to the new tier: bitwise-identical coefficient matrices for every
// worker count.
func TestSupernodalDeterministicAcrossWorkers(t *testing.T) {
	sys, u := gridSystem(t, 900)
	const m = 24
	ref := solveGrid(t, sys, u, m, core.Options{Supernodal: 1, Workers: 1})
	for _, workers := range []int{4, 8} {
		got := solveGrid(t, sys, u, m, core.Options{Supernodal: 1, Workers: workers})
		for i := range ref {
			for j := range ref[i] {
				if math.Float64bits(got[i][j]) != math.Float64bits(ref[i][j]) {
					t.Fatalf("workers=%d: X[%d][%d] = %.17g, workers=1 got %.17g",
						workers, i, j, got[i][j], ref[i][j])
				}
			}
		}
	}
}

// An injected supernodal failure must fall through to sparse LU without a
// Fallback record — the scalar tier upholds the same accuracy contract.
func TestSupernodalFaultFallsThroughToSparse(t *testing.T) {
	sys, u := gridSystem(t, 900)
	const m = 24
	rep := &core.SolveReport{}
	rows := solveGrid(t, sys, u, m, core.Options{
		Supernodal: 1,
		Report:     rep,
		Fault:      faultinject.FailFactorAt(-1, faultinject.TierSupernodal),
	})
	if rep.TierSolves[core.TierSupernodal] != 0 {
		t.Fatalf("failed supernodal tier still served %d solves", rep.TierSolves[core.TierSupernodal])
	}
	if rep.TierSolves[core.TierSparseLU] != m {
		t.Fatalf("sparse tier served %d of %d solves", rep.TierSolves[core.TierSparseLU], m)
	}
	if len(rep.Fallbacks) != 0 {
		t.Fatalf("supernodal fallthrough recorded as degradation: %+v", rep.Fallbacks)
	}
	want := solveGrid(t, sys, u, m, core.Options{Supernodal: -1})
	for i := range rows {
		for j := range rows[i] {
			if math.Float64bits(rows[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("fallthrough result differs from the scalar path at X[%d][%d]", i, j)
			}
		}
	}
}

// Below the auto threshold the tier must stay out of the way: the quickstart
// fixture (n = 6) runs the scalar path and its golden waveform is untouched.
func TestSupernodalAutoStaysOffSmallSystems(t *testing.T) {
	fx := goldenFixtures()[0]
	rep := &core.SolveReport{}
	rows := solveCoeffRows(t, fx, core.Options{Report: rep})
	if rep.TierSolves[core.TierSupernodal] != 0 {
		t.Fatalf("supernodal tier engaged on an n=6 system: %+v", rep.TierSolves)
	}
	want := loadGolden(t, fx.name)
	compareToGolden(t, rows, want, 1e-12)
}

// SolveBatch must inherit the tier through the shared factorization cache.
func TestSupernodalServesBatch(t *testing.T) {
	sys, u := gridSystem(t, 900)
	const m = 16
	ref := solveGrid(t, sys, u, m, core.Options{Supernodal: 1, Workers: 1})
	// Width 0 runs one group, whose view solves on Options.Workers
	// goroutines; width 1 runs two concurrent groups, whose views solve
	// serially. Neither may change a bit.
	for _, workers := range []int{1, 4} {
		for _, width := range []int{0, 1} {
			rep := &core.SolveReport{}
			scenarios := []core.Scenario{{U: u}, {U: u}}
			sols, err := core.SolveBatch(sys, scenarios, m, 10e-9, core.BatchOptions{
				Options:    core.Options{Supernodal: 1, Workers: workers, Report: rep},
				PanelWidth: width,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(sols) != 2 {
				t.Fatalf("got %d solutions", len(sols))
			}
			if rep.TierSolves[core.TierSupernodal] != 2*m {
				t.Fatalf("workers=%d width=%d: supernodal tier served %d of %d batched solves; report: %+v",
					workers, width, rep.TierSolves[core.TierSupernodal], 2*m, rep.TierSolves)
			}
			// Both scenarios share inputs, so both must reproduce the
			// sequential solve bitwise.
			for s, sol := range sols {
				x := sol.Coefficients()
				for i := 0; i < x.Rows(); i++ {
					for j, v := range x.Row(i) {
						if math.Float64bits(v) != math.Float64bits(ref[i][j]) {
							t.Fatalf("workers=%d width=%d: scenario %d X[%d][%d] = %.17g, Solve got %.17g",
								workers, width, s, i, j, v, ref[i][j])
						}
					}
				}
			}
		}
	}
}

// The factor cache must key on the supernodal options: flipping the mode may
// not serve a cached factorization built under the other mode.
func TestSupernodalFactorCacheKeying(t *testing.T) {
	sys, u := gridSystem(t, 900)
	const m = 16
	cache := core.NewFactorCache(0)
	repOn := &core.SolveReport{}
	if _, err := core.Solve(sys, u, m, 10e-9, core.Options{Supernodal: 1, Report: repOn, FactorCache: cache}); err != nil {
		t.Fatal(err)
	}
	if repOn.TierSolves[core.TierSupernodal] != m {
		t.Fatalf("supernodal run: %+v", repOn.TierSolves)
	}
	repOff := &core.SolveReport{}
	if _, err := core.Solve(sys, u, m, 10e-9, core.Options{Supernodal: -1, Report: repOff, FactorCache: cache}); err != nil {
		t.Fatal(err)
	}
	if repOff.TierSolves[core.TierSupernodal] != 0 || repOff.TierSolves[core.TierSparseLU] != m {
		t.Fatalf("disabled run hit the supernodal cache entry: %+v", repOff.TierSolves)
	}
	// Re-running the enabled configuration must now hit the cache.
	repHit := &core.SolveReport{}
	if _, err := core.Solve(sys, u, m, 10e-9, core.Options{Supernodal: 1, Report: repHit, FactorCache: cache}); err != nil {
		t.Fatal(err)
	}
	if repHit.TierSolves[core.TierSupernodal] != m {
		t.Fatalf("cached supernodal run: %+v", repHit.TierSolves)
	}
	if hits, _, _ := cache.Stats(); hits == 0 {
		t.Fatal("second supernodal run did not hit the factor cache")
	}
	// The key holds the resolved engagement, not the mode: below the auto
	// threshold mode 0 builds the disabled run's factorization and shares
	// its entry.
	expectHit := func(name string, sys *core.System, u []waveform.Signal, m int, opt core.Options) {
		t.Helper()
		hits, _, misses := cache.Stats()
		opt.FactorCache = cache
		if _, err := core.Solve(sys, u, m, 10e-9, opt); err != nil {
			t.Fatal(err)
		}
		if h, _, mi := cache.Stats(); h != hits+1 || mi != misses {
			t.Fatalf("%s: hits %d -> %d, misses %d -> %d; want one hit", name, hits, h, misses, mi)
		}
	}
	expectHit("auto below the threshold after disabled", sys, u, m, core.Options{})
	// At n ≥ 4096 mode 0 engages the tier and shares the forced run's entry.
	big, ubig := gridSystem(t, 4200)
	if big.N() < 4096 {
		t.Fatalf("grid has %d states, want at least 4096", big.N())
	}
	if _, err := core.Solve(big, ubig, 2, 10e-9, core.Options{Supernodal: 1, FactorCache: cache}); err != nil {
		t.Fatal(err)
	}
	expectHit("auto above the threshold after forced", big, ubig, 2, core.Options{})
}
