package experiments

//lint:hot

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"opmsim/internal/circuit"
	"opmsim/internal/core"
	"opmsim/internal/netgen"
	"opmsim/internal/waveform"
)

// The Monte-Carlo sweep driver and its benchmark: N component-tolerance
// scenarios of one netlist fanned through the parameter-varying batch engine
// in chunks, folded into a waveform.Envelope instead of materializing N
// solutions. The benchmark compares the SMW update path against
// refactorize-every-scenario on the same workload — the ablation behind
// BENCH_montecarlo.json.

// MonteCarloConfig parameterizes one sweep.
type MonteCarloConfig struct {
	// Netlist and Model: the nominal circuit and its assembled system (MNA
	// or NA — StampDelta handles both).
	Netlist *circuit.Netlist
	Model   *circuit.MNA
	// N is the scenario count, including the nominal scenario 0.
	N int
	// Tol is the symmetric relative tolerance band (±Tol) applied to each
	// perturbed element value.
	Tol float64
	// Seed keys the counter-based RNG: same seed, same scenarios, and
	// Float64bits-identical envelopes.
	Seed uint64
	// Elements names the perturbed components; nil perturbs every
	// perturbable element (netgen.PerturbableElements).
	Elements []string
	// M and T are the BPF grid: M columns over [0, T].
	M int
	T float64
	// Chunk bounds the scenarios per SolveBatch call (default 1024): chunking
	// caps per-call memory at O(Chunk·n) while the envelope spans all N.
	Chunk int
	// UpdateRankLimit is passed through to core.BatchOptions: 0 resolves the
	// crossover from the pencil's counts, >0 pins the SMW side, <0 forces
	// refactorization.
	UpdateRankLimit int
	// ProbeCols are the envelope's quantile probe columns; nil picks the
	// quartile columns {M/4, M/2, 3M/4, M−1}.
	ProbeCols []int
	// Options seeds the per-chunk solver options (Workers, HistoryMode,
	// FactorCache); the Report field is managed per chunk and merged.
	Options core.Options
}

// MonteCarloResult is a completed sweep: the envelope plus the merged solver
// accounting across all chunks.
type MonteCarloResult struct {
	Envelope *waveform.Envelope
	// Scenarios actually solved (== cfg.N).
	Scenarios int
	// PencilUpdates / PencilRefactors / Columns / Factorizations summed over
	// chunk reports; CrossoverRank is the last chunk's resolved limit and
	// BasisColumns the largest shared Woodbury basis a chunk solved.
	PencilUpdates   int
	PencilRefactors int
	Factorizations  int
	Columns         int
	CrossoverRank   int
	BasisColumns    int
}

// MonteCarloSweep runs the sweep: scenario 0 is the nominal circuit, 1..N−1
// carry counter-based component perturbations stamped as pencil deltas. All
// chunks stream through BatchOptions.OnColumn with DiscardSolutions set, so
// peak memory is O(Chunk·n + states·columns) regardless of N.
func MonteCarloSweep(cfg MonteCarloConfig) (*MonteCarloResult, error) {
	if cfg.Netlist == nil || cfg.Model == nil {
		return nil, fmt.Errorf("experiments: montecarlo needs a netlist and an assembled model")
	}
	if cfg.N < 1 {
		return nil, fmt.Errorf("experiments: montecarlo needs at least one scenario, got %d", cfg.N)
	}
	if cfg.Chunk <= 0 {
		cfg.Chunk = 1024
	}
	elements := cfg.Elements
	if elements == nil {
		elements = netgen.PerturbableElements(cfg.Netlist, 0)
	}
	probes := cfg.ProbeCols
	if probes == nil {
		probes = []int{cfg.M / 4, cfg.M / 2, 3 * cfg.M / 4, cfg.M - 1}
	}
	n := cfg.Model.Sys.N()
	env, err := waveform.NewEnvelope(n, cfg.M, probes...)
	if err != nil {
		return nil, err
	}
	res := &MonteCarloResult{Envelope: env, Scenarios: cfg.N}
	// One chunk-sized scenario buffer for the whole sweep: SolveBatch returns
	// before the next chunk is built, so the slots can be overwritten in place.
	scratch := make([]core.Scenario, cfg.Chunk)
	for lo := 0; lo < cfg.N; lo += cfg.Chunk {
		hi := lo + cfg.Chunk
		if hi > cfg.N {
			hi = cfg.N
		}
		scs := scratch[:hi-lo]
		for s := lo; s < hi; s++ {
			perts, err := netgen.MonteCarloPerturb(cfg.Netlist, elements, cfg.Seed, s, cfg.Tol)
			if err != nil {
				return nil, err
			}
			sc := core.Scenario{U: cfg.Model.Inputs}
			if len(perts) > 0 {
				d, err := cfg.Netlist.StampDelta(cfg.Model, perts)
				if err != nil {
					return nil, fmt.Errorf("experiments: montecarlo scenario %d: %w", s, err)
				}
				if d.Rank() > 0 {
					sc.Delta = d
				}
			}
			scs[s-lo] = sc
		}
		rep := &core.SolveReport{}
		opt := cfg.Options
		opt.Report = rep
		var obsErr error
		_, err := core.SolveBatch(cfg.Model.Sys, scs, cfg.M, cfg.T, core.BatchOptions{
			Options:          opt,
			UpdateRankLimit:  cfg.UpdateRankLimit,
			DiscardSolutions: true,
			OnColumn: func(j int, _ float64, cols [][]float64) {
				for s := range cols {
					if err := env.ObserveColumn(j, cols[s]); err != nil && obsErr == nil {
						obsErr = err
					}
				}
			},
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: montecarlo chunk [%d,%d): %w", lo, hi, err)
		}
		if obsErr != nil {
			return nil, obsErr
		}
		res.PencilUpdates += rep.PencilUpdates
		res.PencilRefactors += rep.PencilRefactors
		res.Factorizations += rep.Factorizations
		res.Columns += rep.Columns
		res.CrossoverRank = rep.UpdateCrossoverRank
		res.BasisColumns = max(res.BasisColumns, rep.UpdateBasisColumns)
	}
	return res, nil
}

// MonteCarloBenchConfig parameterizes the SMW-vs-refactorize ablation.
type MonteCarloBenchConfig struct {
	// Ns are the scenario counts to sweep.
	Ns []int
	// LadderSections / LadderR / LadderC shape the quickstart-style RC
	// ladder fixture; LadderElems elements are perturbed (the low-rank
	// workload the SMW path targets).
	LadderSections int
	LadderElems    int
	// Grid shapes the power-grid fixture (NA model); GridElems elements are
	// perturbed.
	Grid      netgen.PowerGridConfig
	GridElems int
	// M and TolPct: BPF columns and tolerance band shared by both fixtures.
	M    int
	Tol  float64
	Seed uint64
}

// DefaultMonteCarloBench covers N ∈ {1k, 10k} on the RC-ladder
// (quickstart) and power-grid fixtures.
func DefaultMonteCarloBench() MonteCarloBenchConfig {
	return MonteCarloBenchConfig{
		Ns:             []int{1000, 10000},
		LadderSections: 100,
		LadderElems:    8,
		Grid:           netgen.DefaultPowerGrid(),
		GridElems:      8,
		M:              64,
		Tol:            0.1,
		Seed:           1,
	}
}

// MonteCarloRow is one (fixture, GOMAXPROCS, N) point.
type MonteCarloRow struct {
	Fixture    string `json:"fixture"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	N          int    `json:"n"`
	States     int    `json:"states"`
	M          int    `json:"m"`
	// Rank is the pencil-update rank of each perturbed scenario (the number
	// of perturbed elements).
	Rank int `json:"rank"`
	// SMWNS and RefactorNS are the wall-clock times of the two legs, each
	// measured over all N scenarios.
	SMWNS      int64   `json:"smw_ns"`
	RefactorNS int64   `json:"refactor_ns"`
	Speedup    float64 `json:"speedup"` // refactor / smw
	// Updates/Refactors dispatched in the SMW leg (the refactor leg by
	// construction refactors every delta scenario), and the columns of the
	// shared Woodbury basis it solved.
	Updates      int `json:"updates"`
	Refactors    int `json:"refactors"`
	BasisColumns int `json:"basis_columns"`
}

// MonteCarloReport is the machine-readable result written to
// BENCH_montecarlo.json by cmd/opm-bench.
type MonteCarloReport struct {
	Provenance Provenance `json:"provenance"`
	// MaxRelErr is the worst relative envelope deviation (min/max/mean
	// surfaces) between the SMW and refactorize legs, per fixture, measured
	// at the smallest N.
	MaxRelErr map[string]float64 `json:"max_rel_err"`
	Rows      []MonteCarloRow    `json:"rows"`
	Notes     []string           `json:"notes"`
}

// WriteJSON writes the report to path.
func (r *MonteCarloReport) WriteJSON(path string) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// mcFixture is one benchmark circuit.
type mcFixture struct {
	name     string
	netlist  *circuit.Netlist
	model    *circuit.MNA
	elements []string
	T        float64
}

func mcFixtures(cfg MonteCarloBenchConfig) ([]mcFixture, error) {
	var out []mcFixture
	lad, _, err := netgen.RCLadderNetlist(cfg.LadderSections, 100, 1e-9, waveform.Step(1, 0))
	if err != nil {
		return nil, err
	}
	ladModel, err := lad.MNA()
	if err != nil {
		return nil, err
	}
	out = append(out, mcFixture{
		name: "rc-ladder", netlist: lad, model: ladModel,
		elements: netgen.PerturbableElements(lad, cfg.LadderElems),
		T:        5e-7,
	})
	grid, err := netgen.PowerGrid3D(cfg.Grid)
	if err != nil {
		return nil, err
	}
	gridModel, err := grid.Netlist.NA()
	if err != nil {
		return nil, err
	}
	out = append(out, mcFixture{
		name: "power-grid", netlist: grid.Netlist, model: gridModel,
		elements: netgen.PerturbableElements(grid.Netlist, cfg.GridElems),
		T:        10e-9,
	})
	return out, nil
}

// envelopeRelErr compares the min/max/mean surfaces of two envelopes.
func envelopeRelErr(a, b *waveform.Envelope) float64 {
	worst, scale := 0.0, 0.0
	n, m := a.States(), a.Columns()
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			for _, pair := range [][2]float64{
				{a.Min(i, j), b.Min(i, j)},
				{a.Max(i, j), b.Max(i, j)},
				{a.Mean(i, j), b.Mean(i, j)},
			} {
				if v := math.Abs(pair[1]); v > scale {
					scale = v
				}
				if d := math.Abs(pair[0] - pair[1]); d > worst {
					worst = d
				}
			}
		}
	}
	return worst / (1 + scale)
}

// MonteCarloBench runs the ablation: at each benchProcs setting, for
// each fixture and N, the sweep through the SMW update path (UpdateRankLimit
// pinned above the fixture rank) and refactorize-every-scenario
// (UpdateRankLimit −1). It restores GOMAXPROCS before returning.
func MonteCarloBench(cfg MonteCarloBenchConfig) (*Table, *MonteCarloReport, error) {
	if len(cfg.Ns) == 0 {
		return nil, nil, fmt.Errorf("experiments: montecarlo bench needs at least one N")
	}
	fixtures, err := mcFixtures(cfg)
	if err != nil {
		return nil, nil, err
	}
	rep := &MonteCarloReport{Provenance: NewProvenance(), MaxRelErr: map[string]float64{}}
	tbl := &Table{
		Title:  "Monte-Carlo sweep: SMW factor updates vs refactorize-per-scenario",
		Header: []string{"fixture", "procs", "N", "states", "rank", "basis", "SMW", "refactor", "speedup"},
	}
	runLeg := func(fx mcFixture, scenarios, limit int) (time.Duration, *MonteCarloResult, error) {
		start := time.Now()
		res, err := MonteCarloSweep(MonteCarloConfig{
			Netlist: fx.netlist, Model: fx.model,
			N: scenarios, Tol: cfg.Tol, Seed: cfg.Seed,
			Elements: fx.elements, M: cfg.M, T: fx.T,
			UpdateRankLimit: limit,
		})
		return time.Since(start), res, err
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, p := range benchProcs() {
		runtime.GOMAXPROCS(p)
		for _, fx := range fixtures {
			rank := len(fx.elements)
			smwLimit := 4 * rank // safely on the SMW side of the crossover
			for k, N := range cfg.Ns {
				smwDur, smwRes, err := runLeg(fx, N, smwLimit)
				if err != nil {
					return nil, nil, fmt.Errorf("%s N=%d: smw leg: %w", fx.name, N, err)
				}
				refDur, refRes, err := runLeg(fx, N, -1)
				if err != nil {
					return nil, nil, fmt.Errorf("%s N=%d: refactor leg: %w", fx.name, N, err)
				}
				if k == 0 {
					rep.MaxRelErr[fx.name] = envelopeRelErr(smwRes.Envelope, refRes.Envelope)
				}
				row := MonteCarloRow{
					Fixture: fx.name, GOMAXPROCS: p, N: N, States: fx.model.Sys.N(), M: cfg.M, Rank: rank,
					SMWNS: smwDur.Nanoseconds(), RefactorNS: refDur.Nanoseconds(),
					Speedup: float64(refDur) / float64(smwDur),
					Updates: smwRes.PencilUpdates, Refactors: smwRes.PencilRefactors, BasisColumns: smwRes.BasisColumns,
				}
				rep.Rows = append(rep.Rows, row)
				//lint:ignore allocsite results-table rendering, one row per fixture×N sweep point, not a per-scenario path
				tbl.AddRow(fx.name, fmt.Sprint(p), fmt.Sprint(N), fmt.Sprint(row.States), fmt.Sprint(rank),
					fmt.Sprint(row.BasisColumns), fmtDur(smwDur), fmtDur(refDur), fmt.Sprintf("%.2fx", row.Speedup))
			}
		}
	}
	rep.Notes = append(rep.Notes,
		"every leg measured over all N scenarios at the row's GOMAXPROCS; nothing is scaled",
		"max_rel_err compares the min/max/mean envelope surfaces of the two legs at the smallest N")
	tbl.Notes = append(tbl.Notes,
		"speedup = refactorize-per-scenario time / SMW update-path time; basis = columns of the shared Woodbury basis")
	for _, name := range []string{"rc-ladder", "power-grid"} {
		if v, ok := rep.MaxRelErr[name]; ok {
			//lint:ignore allocsite footnote rendering over a handful of fixtures, not a per-scenario path
			tbl.Notes = append(tbl.Notes, fmt.Sprintf("%s envelope deviation SMW vs refactor: %.2e", name, v))
		}
	}
	return tbl, rep, nil
}
