package experiments

//lint:hot

import (
	"fmt"
	"math"

	"opmsim/internal/circuit"
	"opmsim/internal/core"
	"opmsim/internal/netgen"
	"opmsim/internal/waveform"
)

// Corner analysis: the deterministic worst-case companion to MonteCarloSweep.
// Instead of sampling the tolerance band, CornerSweep solves its extremes —
// every element alone at ±tol plus the two global all-high/all-low corners
// (netgen.CornerPerturb) — through one parameter-varying SolveBatch call, so
// the per-element corners ride the SMW factor-update path as rank-1 pencil
// deltas against the shared nominal factorization. The result bounds the
// waveform family and names the corner that deviates most from nominal,
// which is what a designer actually reads off a tolerance analysis.

// CornerConfig parameterizes one corner sweep.
type CornerConfig struct {
	// Netlist and Model: the nominal circuit and its assembled system.
	Netlist *circuit.Netlist
	Model   *circuit.MNA
	// Elements names the perturbed components; nil sweeps every perturbable
	// element (netgen.PerturbableElements).
	Elements []string
	// Tol is the symmetric relative tolerance band (±Tol).
	Tol float64
	// M and T are the BPF grid: M columns over [0, T].
	M int
	T float64
	// UpdateRankLimit is passed to core.BatchOptions: 0 resolves the
	// SMW-vs-refactor crossover from the pencil's counts, >0 pins the update
	// path, <0 forces refactorization.
	UpdateRankLimit int
	// Options seeds the solver options; Report is managed internally.
	Options core.Options
}

// Corner is one solved corner's outcome.
type Corner struct {
	// Label names the corner: "nominal", "<elem>+", "<elem>-", "all+", "all-".
	Label string
	// MaxDeviation is the largest |x_corner − x_nominal| over all states and
	// columns; 0 for the nominal corner itself.
	MaxDeviation float64
	// At is the (state, column) where the maximum was attained.
	AtState, AtColumn int
}

// CornerResult is a completed sweep.
type CornerResult struct {
	// Corners in scenario order (index 0 = nominal); Worst indexes the
	// corner with the largest deviation.
	Corners []Corner
	Worst   int
	// Envelope folds min/max/mean over the whole corner family.
	Envelope *waveform.Envelope
	// PencilUpdates / PencilRefactors count how the batch dispatched the
	// corner deltas (SMW update path vs refactorization).
	PencilUpdates   int
	PencilRefactors int
}

// CornerSweep runs the corner set through one SolveBatch call. Peak memory
// stays O(corners·n) via DiscardSolutions; deviations are computed column by
// column against the nominal scenario in the same batch.
func CornerSweep(cfg CornerConfig) (*CornerResult, error) {
	if cfg.Netlist == nil || cfg.Model == nil {
		return nil, fmt.Errorf("experiments: corner sweep needs a netlist and an assembled model")
	}
	elements := cfg.Elements
	if elements == nil {
		elements = netgen.PerturbableElements(cfg.Netlist, 0)
	}
	if len(elements) == 0 {
		return nil, fmt.Errorf("experiments: corner sweep found no perturbable elements")
	}
	count := netgen.CornerCount(len(elements))
	res := &CornerResult{Corners: make([]Corner, count)}
	scs := make([]core.Scenario, count)
	for c := 0; c < count; c++ {
		perts, label, err := netgen.CornerPerturb(cfg.Netlist, elements, c, cfg.Tol)
		if err != nil {
			return nil, err
		}
		res.Corners[c].Label = label
		sc := core.Scenario{U: cfg.Model.Inputs}
		if len(perts) > 0 {
			d, err := cfg.Netlist.StampDelta(cfg.Model, perts)
			if err != nil {
				return nil, fmt.Errorf("experiments: corner %q: %w", label, err)
			}
			if d.Rank() > 0 {
				sc.Delta = d
			}
		}
		scs[c] = sc
	}
	n := cfg.Model.Sys.N()
	env, err := waveform.NewEnvelope(n, cfg.M, cfg.M/2, cfg.M-1)
	if err != nil {
		return nil, err
	}
	res.Envelope = env
	rep := &core.SolveReport{}
	opt := cfg.Options
	opt.Report = rep
	var obsErr error
	_, err = core.SolveBatch(cfg.Model.Sys, scs, cfg.M, cfg.T, core.BatchOptions{
		Options:          opt,
		UpdateRankLimit:  cfg.UpdateRankLimit,
		DiscardSolutions: true,
		OnColumn: func(j int, _ float64, cols [][]float64) {
			nominal := cols[0]
			for s := range cols {
				if err := env.ObserveColumn(j, cols[s]); err != nil && obsErr == nil {
					obsErr = err
				}
				if s == 0 {
					continue
				}
				corner := &res.Corners[s]
				for i, v := range cols[s] {
					if d := math.Abs(v - nominal[i]); d > corner.MaxDeviation {
						corner.MaxDeviation, corner.AtState, corner.AtColumn = d, i, j
					}
				}
			}
		},
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: corner sweep: %w", err)
	}
	if obsErr != nil {
		return nil, obsErr
	}
	for c := range res.Corners {
		if res.Corners[c].MaxDeviation > res.Corners[res.Worst].MaxDeviation {
			res.Worst = c
		}
	}
	res.PencilUpdates = rep.PencilUpdates
	res.PencilRefactors = rep.PencilRefactors
	return res, nil
}

// CornerTable renders the sweep as a table, corners sorted by scenario
// order, the worst marked.
func CornerTable(res *CornerResult) *Table {
	tbl := &Table{
		Title:  "Corner sweep: ±tol extremes per element plus global corners",
		Header: []string{"corner", "max |Δx| vs nominal", "at state", "at column", "worst"},
	}
	for c, corner := range res.Corners {
		if c == 0 {
			continue
		}
		mark := ""
		if c == res.Worst {
			mark = "*"
		}
		//lint:ignore allocsite results-table rendering, one row per corner, not a per-scenario path
		tbl.AddRow(corner.Label, fmt.Sprintf("%.4e", corner.MaxDeviation),
			fmt.Sprint(corner.AtState), fmt.Sprint(corner.AtColumn), mark)
	}
	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("%d corners (%d per-element ±, 2 global) solved in one parameter-varying batch: %d SMW updates, %d refactorizations",
			len(res.Corners)-1, len(res.Corners)-3, res.PencilUpdates, res.PencilRefactors))
	return tbl
}
