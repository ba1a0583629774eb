package experiments

import (
	"math"
	"testing"

	"opmsim/internal/netgen"
	"opmsim/internal/waveform"
)

func mcTestConfig(t *testing.T, n int, limit int) MonteCarloConfig {
	t.Helper()
	lad, _, err := netgen.RCLadderNetlist(12, 100, 1e-9, waveform.Step(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	model, err := lad.MNA()
	if err != nil {
		t.Fatal(err)
	}
	return MonteCarloConfig{
		Netlist: lad, Model: model,
		N: n, Tol: 0.1, Seed: 42,
		Elements: netgen.PerturbableElements(lad, 6),
		M:        32, T: 5e-7,
		Chunk:           16,
		UpdateRankLimit: limit,
	}
}

// The sweep's determinism contract: the same seed produces
// Float64bits-identical envelopes — across runs and across chunk sizes
// (chunking only re-partitions the scenario order, which is preserved).
func TestMonteCarloSweepSeededDeterminism(t *testing.T) {
	base := mcTestConfig(t, 50, 64)
	a, err := MonteCarloSweep(base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MonteCarloSweep(base)
	if err != nil {
		t.Fatal(err)
	}
	chunked := base
	chunked.Chunk = 7
	c, err := MonteCarloSweep(chunked)
	if err != nil {
		t.Fatal(err)
	}
	envs := map[string]*waveform.Envelope{"rerun": b.Envelope, "rechunked": c.Envelope}
	n, m := a.Envelope.States(), a.Envelope.Columns()
	for name, env := range envs {
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				for stat, pair := range map[string][2]float64{
					"min":  {a.Envelope.Min(i, j), env.Min(i, j)},
					"max":  {a.Envelope.Max(i, j), env.Max(i, j)},
					"mean": {a.Envelope.Mean(i, j), env.Mean(i, j)},
				} {
					if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
						t.Fatalf("%s: %s(%d,%d) differs: %.17g vs %.17g", name, stat, i, j, pair[0], pair[1])
					}
				}
			}
		}
	}
	// A different seed must actually change the envelope.
	shifted := base
	shifted.Seed = 43
	d, err := MonteCarloSweep(shifted)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := 0; i < n && same; i++ {
		for j := 0; j < m && same; j++ {
			if math.Float64bits(a.Envelope.Mean(i, j)) != math.Float64bits(d.Envelope.Mean(i, j)) {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seed produced an identical envelope")
	}
}

// The two crossover sides agree on the envelope (≤1e-9 here; the per-column
// SMW contract is 1e-12, envelope folding amplifies nothing) and report
// their dispatch honestly.
func TestMonteCarloSweepPathsAgree(t *testing.T) {
	const N = 40
	smw, err := MonteCarloSweep(mcTestConfig(t, N, 64))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := MonteCarloSweep(mcTestConfig(t, N, -1))
	if err != nil {
		t.Fatal(err)
	}
	if got := envelopeRelErr(smw.Envelope, ref.Envelope); got > 1e-9 {
		t.Fatalf("envelope deviation %.3g between SMW and refactor legs", got)
	}
	if smw.PencilUpdates != N-1 || smw.PencilRefactors != 0 {
		t.Fatalf("SMW leg dispatch: updates=%d refactors=%d, want %d/0", smw.PencilUpdates, smw.PencilRefactors, N-1)
	}
	if ref.PencilUpdates != 0 || ref.PencilRefactors != N-1 {
		t.Fatalf("refactor leg dispatch: updates=%d refactors=%d, want 0/%d", ref.PencilUpdates, ref.PencilRefactors, N-1)
	}
	if smw.Envelope.Count() != N || ref.Envelope.Count() != N {
		t.Fatalf("envelope counts %d/%d, want %d", smw.Envelope.Count(), ref.Envelope.Count(), N)
	}
}

// Tiny end-to-end run of the benchmark harness itself (CI-scale Ns).
func TestMonteCarloBenchSmoke(t *testing.T) {
	cfg := DefaultMonteCarloBench()
	cfg.Ns = []int{16, 64}
	cfg.LadderSections = 10
	cfg.Grid.Layers, cfg.Grid.Rows, cfg.Grid.Cols = 1, 4, 4
	cfg.M = 16
	tbl, rep, err := MonteCarloBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := 4 * len(benchProcs())
	if len(rep.Rows) != want {
		t.Fatalf("rows = %d, want %d (GOMAXPROCS settings × 2 fixtures × 2 Ns)", len(rep.Rows), want)
	}
	if rep.Provenance.Go == "" {
		t.Fatal("report carries no provenance")
	}
	for _, row := range rep.Rows {
		if row.SMWNS <= 0 || row.RefactorNS <= 0 || row.Speedup <= 0 {
			t.Fatalf("row %+v: want both legs measured", row)
		}
		if row.BasisColumns != row.Rank {
			t.Fatalf("row %+v: want one basis column per perturbed element", row)
		}
	}
	for name, v := range rep.MaxRelErr {
		if v > 1e-9 {
			t.Fatalf("%s: envelope deviation %.3g between legs", name, v)
		}
	}
	if len(tbl.Rows) != want {
		t.Fatalf("table rows = %d", len(tbl.Rows))
	}
}
