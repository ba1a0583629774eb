package experiments

//lint:hot

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"opmsim/internal/core"
	"opmsim/internal/netgen"
	"opmsim/internal/sparse"
)

// The large-grid scaling benchmark behind BENCH_scale.json: for power grids
// of growing node count (up to n = 10⁵ and beyond), time the leading-pencil
// factorization through the scalar Gilbert–Peierls sparse LU versus the
// supernodal/domain-decomposed BBD tier, verify the two solutions agree, and
// report the speedup. The committed smoke baseline (BENCH_scale_smoke.json)
// plus CompareScaleReports form the CI regression guard. The fill of both
// factorizations is a count, so the guard compares it exactly; speedup
// ratios are machine-portable where absolute times are not, so the guard
// compares the factorization and the per-vector solve speedup, each the
// median of three in-process repeats, against a floor.

// ScaleConfig parameterizes the sweep.
type ScaleConfig struct {
	// Sizes are the approximate grid node counts to sweep (netgen.PowerGridN).
	Sizes []int
	// M and T fix the BPF grid whose leading pencil is factored (only
	// h = T/M enters the pencil).
	M int
	T float64
	// Workers is handed to the BBD tier; results are bitwise-identical for
	// every value, so it only affects wall-clock on multi-core hosts.
	Workers int
	// Solves is the number of single-vector solves timed per leg after the
	// factorization (default 8); the report holds their mean.
	Solves int
}

// scaleRepeats is how many times each size's legs are factored and timed;
// a row holds the median of each time and of each speedup ratio, which a
// single run on a noisy host spreads too widely for the guard's floor.
const scaleRepeats = 3

// DefaultScale covers the acceptance sweep: 10³, 10⁴, 10⁵ nodes.
func DefaultScale() ScaleConfig {
	return ScaleConfig{
		Sizes: []int{1000, 10000, 100000},
		M:     64,
		T:     10e-9,
	}
}

// SmokeScale is the CI-sized instance: one mid-size grid, bounded to well
// under a minute on a single core.
func SmokeScale() ScaleConfig {
	return ScaleConfig{Sizes: []int{6000}, M: 64, T: 10e-9}
}

// ScaleRow is one grid size's outcome.
type ScaleRow struct {
	// N is the requested node count; States and NNZ describe the assembled
	// NA leading pencil.
	N      int `json:"n"`
	States int `json:"states"`
	NNZ    int `json:"nnz"`
	// Scalar leg: Gilbert–Peierls sparse LU (AMD + threshold pivoting).
	ScalarFactorNS int64 `json:"scalar_factor_ns"`
	ScalarSolveNS  int64 `json:"scalar_solve_ns"`
	ScalarFillNNZ  int   `json:"scalar_fill_nnz"`
	// BBD leg: nested dissection + supernodal domain factors + dense Schur.
	BBDFactorNS int64 `json:"bbd_factor_ns"`
	BBDSolveNS  int64 `json:"bbd_solve_ns"`
	BBDFillNNZ  int   `json:"bbd_fill_nnz"`
	Parts       int   `json:"parts"`
	IfaceN      int   `json:"iface_n"`
	// FactorSpeedup = scalar factor time / BBD factor time; SolveSpeedup
	// likewise for the per-vector solves.
	FactorSpeedup float64 `json:"factor_speedup"`
	SolveSpeedup  float64 `json:"solve_speedup"`
	// MaxRelDiff is the worst relative component difference between the two
	// legs' solutions of the same right-hand side.
	MaxRelDiff float64 `json:"max_rel_diff"`
}

// ScaleReport is the machine-readable result written to BENCH_scale.json.
type ScaleReport struct {
	Provenance Provenance `json:"provenance"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	Workers    int        `json:"workers"`
	Rows       []ScaleRow `json:"rows"`
	Notes      []string   `json:"notes"`
}

// WriteJSON writes the report to path.
func (r *ScaleReport) WriteJSON(path string) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// ReadScaleReport loads a report written by WriteJSON.
func ReadScaleReport(path string) (*ScaleReport, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r ScaleReport
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("experiments: scale report %s: %w", path, err)
	}
	return &r, nil
}

// scaleRHS builds the deterministic right-hand side both legs solve: smooth,
// dense, and size-independent in character.
func scaleRHS(n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = 1 + math.Sin(float64(i)*0.37)
	}
	return b
}

// ScaleBench runs the sweep.
func ScaleBench(cfg ScaleConfig) (*Table, *ScaleReport, error) {
	if len(cfg.Sizes) == 0 {
		return nil, nil, fmt.Errorf("experiments: scale bench needs at least one size")
	}
	if cfg.Solves <= 0 {
		cfg.Solves = 8
	}
	rep := &ScaleReport{Provenance: NewProvenance(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: cfg.Workers}
	tbl := &Table{
		Title:  "Grid scaling: scalar Gilbert–Peierls LU vs supernodal BBD factorization",
		Header: []string{"n(req)", "states", "nnz", "scalar factor", "BBD factor", "speedup", "parts", "iface", "solve speedup", "rel diff"},
	}
	for _, size := range cfg.Sizes {
		grid, err := netgen.PowerGrid3D(netgen.PowerGridN(size))
		if err != nil {
			return nil, nil, err
		}
		na, err := grid.Netlist.NA()
		if err != nil {
			return nil, nil, err
		}
		pencil, _, err := core.LeadingPencil(na.Sys, cfg.M, cfg.T)
		if err != nil {
			return nil, nil, err
		}
		n := pencil.R
		row := ScaleRow{N: size, States: n, NNZ: pencil.NNZ()}

		var sf *sparse.Factorization
		var bf *sparse.BBD
		b := scaleRHS(n)
		//lint:ignore allocsite one solution vector per sweep size, not a per-solve path
		xs := make([]float64, n)
		//lint:ignore allocsite one solution vector per sweep size, not a per-solve path
		xb := make([]float64, n)
		// Per repeat: scalar factor, BBD factor, scalar solve, BBD solve
		// (ns), then the factor and solve speedups.
		var runs [6][]float64
		for i := range runs {
			runs[i] = make([]float64, scaleRepeats)
		}
		for k := range scaleRepeats {
			var legs [4]time.Duration
			var err error
			if legs[0], err = timeIt(1, func() (err error) {
				sf, err = sparse.Factor(pencil, sparse.Options{})
				return err
			}); err != nil {
				return nil, nil, fmt.Errorf("experiments: scale n=%d: scalar factor: %w", size, err)
			}
			if legs[1], err = timeIt(1, func() (err error) {
				bf, err = sparse.FactorBBD(pencil, sparse.BBDOptions{Workers: cfg.Workers})
				return err
			}); err != nil {
				return nil, nil, fmt.Errorf("experiments: scale n=%d: BBD factor: %w", size, err)
			}
			if legs[2], err = timeIt(cfg.Solves, func() error { return sf.SolveInto(xs, b) }); err != nil {
				return nil, nil, err
			}
			if legs[3], err = timeIt(cfg.Solves, func() error { return bf.SolveInto(xb, b) }); err != nil {
				return nil, nil, err
			}
			for i, d := range legs {
				runs[i][k] = float64(d.Nanoseconds())
			}
			runs[4][k] = float64(legs[0]) / float64(legs[1])
			runs[5][k] = float64(legs[2]) / float64(legs[3])
		}
		row.ScalarFactorNS, row.BBDFactorNS = int64(medianOf(runs[0])), int64(medianOf(runs[1]))
		row.ScalarSolveNS, row.BBDSolveNS = int64(medianOf(runs[2])), int64(medianOf(runs[3]))
		row.FactorSpeedup, row.SolveSpeedup = medianOf(runs[4]), medianOf(runs[5])
		row.ScalarFillNNZ, row.BBDFillNNZ = sf.NNZFactors(), bf.NNZFactors()
		row.Parts, row.IfaceN = bf.Parts(), bf.IfaceN()

		scale := 0.0
		for _, v := range xs {
			if a := math.Abs(v); a > scale {
				scale = a
			}
		}
		for i := range xs {
			if d := math.Abs(xs[i]-xb[i]) / (1 + scale); d > row.MaxRelDiff {
				row.MaxRelDiff = d
			}
		}
		if row.MaxRelDiff > 1e-8 {
			return nil, nil, fmt.Errorf("experiments: scale n=%d: BBD and scalar solutions disagree (rel diff %.3g)", size, row.MaxRelDiff)
		}
		rep.Rows = append(rep.Rows, row)
		//lint:ignore allocsite results-table rendering, one row per sweep size, not a per-scenario path
		tbl.AddRow(fmt.Sprint(size), fmt.Sprint(n), fmt.Sprint(row.NNZ),
			fmtDur(time.Duration(row.ScalarFactorNS)), fmtDur(time.Duration(row.BBDFactorNS)),
			fmt.Sprintf("%.2fx", row.FactorSpeedup),
			fmt.Sprint(row.Parts), fmt.Sprint(row.IfaceN),
			fmt.Sprintf("%.2fx", row.SolveSpeedup),
			fmt.Sprintf("%.1e", row.MaxRelDiff))
	}
	rep.Notes = append(rep.Notes,
		"scalar leg: Gilbert–Peierls sparse LU with AMD pre-ordering; BBD leg: nested-dissection domain decomposition with AMD-ordered supernodal domain factors and a dense Schur interface tier",
		"both legs solve the same deterministic right-hand side; rel diff is the worst relative component difference",
		"speedups are wall-clock on this host, each the median of three repeats; the CI guard compares fill exactly and speedup ratios against the committed smoke baseline, which transfers across machines")
	tbl.Notes = append(tbl.Notes, "factorization speedup = scalar / BBD wall-clock; solutions cross-checked to 1e-8 relative")
	return tbl, rep, nil
}

// medianOf returns the middle value of v (the upper one of an even count),
// sorting v in place.
func medianOf(v []float64) float64 {
	sort.Float64s(v)
	return v[len(v)/2]
}

// CompareScaleReports is the bench-regression guard: every baseline size
// present in the current report must have exactly the baseline's scalar and
// BBD fill (both are counts, so any change is a change of the ordering or
// the factorization), and retain at least (1 − tol) of the baseline's
// factorization speedup and of its solve speedup. With tol = 0.25 a >25 %
// regression of the supernodal tier's advantage fails the comparison. Sizes
// missing from either report are ignored (the smoke run covers a subset of
// the acceptance sweep).
func CompareScaleReports(current, baseline *ScaleReport, tol float64) error {
	if tol <= 0 {
		tol = 0.25
	}
	byN := map[int]ScaleRow{}
	for _, r := range current.Rows {
		byN[r.N] = r
	}
	matched := 0
	for _, base := range baseline.Rows {
		cur, ok := byN[base.N]
		if !ok {
			continue
		}
		matched++
		if cur.ScalarFillNNZ != base.ScalarFillNNZ || cur.BBDFillNNZ != base.BBDFillNNZ {
			return fmt.Errorf("experiments: scale fill changed at n=%d: scalar %d, BBD %d nonzeros (baseline %d, %d)",
				base.N, cur.ScalarFillNNZ, cur.BBDFillNNZ, base.ScalarFillNNZ, base.BBDFillNNZ)
		}
		for _, c := range []struct {
			what      string
			cur, base float64
		}{
			{"factor", cur.FactorSpeedup, base.FactorSpeedup},
			{"solve", cur.SolveSpeedup, base.SolveSpeedup},
		} {
			if floor := c.base * (1 - tol); c.cur < floor {
				return fmt.Errorf("experiments: scale regression at n=%d: %s speedup %.2fx below %.2fx (baseline %.2fx − %.0f%%)",
					base.N, c.what, c.cur, floor, c.base, tol*100)
			}
		}
	}
	if matched == 0 {
		return fmt.Errorf("experiments: scale guard matched no sizes between current %v and baseline %v",
			sizesOf(current), sizesOf(baseline))
	}
	return nil
}

func sizesOf(r *ScaleReport) []int {
	var s []int
	for _, row := range r.Rows {
		s = append(s, row.N)
	}
	return s
}
