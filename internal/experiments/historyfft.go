package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"

	"opmsim/internal/circuit"
	"opmsim/internal/core"
	"opmsim/internal/mat"
	"opmsim/internal/netgen"
	"opmsim/internal/waveform"
)

// HistoryFFTConfig parameterizes the FFT fast-convolution ablation: the §V-A
// fractional line solved at increasing m with the exact history tier (the
// reference ascending fold) and the segmented fast-convolution tier.
type HistoryFFTConfig struct {
	Line netgen.FractionalLineConfig
	T    float64
	// Ms are the block-pulse counts to sweep; the sweep should straddle the
	// auto crossover so the report shows where the FFT tier starts winning.
	Ms []int
	// Repeat re-runs each solve and keeps the minimum time.
	Repeat int
	// Workers for the FFT tier's pair fan-out; 0 means the GOMAXPROCS
	// setting of the row. The exact tier runs on the solving goroutine.
	Workers int
}

// DefaultHistoryFFT sweeps the paper's fractional line across the crossover
// up to m = 8192, the grid of the benchmark's frac-line workload.
func DefaultHistoryFFT() HistoryFFTConfig {
	return HistoryFFTConfig{
		Line:   netgen.DefaultFractionalLine(),
		T:      2.7e-9,
		Ms:     []int{256, 1024, 4096, 8192},
		Repeat: 3,
	}
}

// HistoryFFTRow is one m-point of the sweep. MaxRelDiff is
// max|X_fft − X_exact| / max(1, max|X_exact|): the FFT tier reorders the
// floating-point sums, so the difference is roundoff-sized rather than zero,
// and the acceptance bound is 1e-10.
type HistoryFFTRow struct {
	GOMAXPROCS    int     `json:"gomaxprocs"`
	Workers       int     `json:"workers"`
	M             int     `json:"m"`
	N             int     `json:"n"`
	ExactNS       int64   `json:"exact_ns"`
	FFTNS         int64   `json:"fft_ns"`
	FFTOverExact  float64 `json:"fft_over_exact"` // exact / fft
	MaxRelDiff    float64 `json:"max_rel_diff"`   // fft vs exact
	HistoryEngine string  `json:"history_engine"` // what the fft run reported
}

// HistoryFFTReport is the machine-readable result written to
// BENCH_history_fft.json by cmd/opm-bench.
type HistoryFFTReport struct {
	Provenance Provenance      `json:"provenance"`
	Fixture    string          `json:"fixture"`
	Alpha      float64         `json:"alpha"`
	Rows       []HistoryFFTRow `json:"rows"`
}

// WriteJSON writes the report to path.
func (r *HistoryFFTReport) WriteJSON(path string) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// HistoryFFT runs the fast-convolution ablation on the fractional line: at
// each benchProcs setting and for each m it times Solve with the exact tier
// and the FFT tier (the latter on the row's worker budget), and cross-checks
// the FFT coefficients against the exact ones. It restores GOMAXPROCS before
// returning.
func HistoryFFT(cfg HistoryFFTConfig) (*Table, *HistoryFFTReport, error) {
	if cfg.Repeat < 1 {
		cfg.Repeat = 1
	}
	drive := waveform.Pulse(0, 1e-3, 0.1e-9, 0.1e-9, 0.1e-9, 0.8e-9, 0)
	mna, err := netgen.FractionalLine(cfg.Line, drive, waveform.Zero())
	if err != nil {
		return nil, nil, err
	}
	rep := &HistoryFFTReport{
		Provenance: NewProvenance(),
		Fixture:    fmt.Sprintf("fractional line n=%d", mna.Sys.N()),
		Alpha:      cfg.Line.Order,
	}
	tbl := &Table{
		Title: fmt.Sprintf("History engine FFT tier — fractional line (n=%d, α=%g)",
			mna.Sys.N(), cfg.Line.Order),
		Header: []string{"procs", "m", "exact", "fft", "fft/exact", "max rel Δ"},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, p := range benchProcs() {
		runtime.GOMAXPROCS(p)
		workers := cfg.Workers
		if workers <= 0 {
			workers = p
		}
		if err := historyFFTRows(cfg, mna, p, workers, rep, tbl); err != nil {
			return nil, nil, err
		}
	}
	tbl.Notes = append(tbl.Notes,
		"exact = O(n·m²) reference fold; fft = segmented fast convolution, O(n·m log² m)",
		"fft/exact > 1 means the FFT tier wins; max rel Δ is fft vs exact and must stay ≤ 1e-10")
	return tbl, rep, nil
}

// historyFFTRows measures every m of the sweep at GOMAXPROCS procs.
func historyFFTRows(cfg HistoryFFTConfig, mna *circuit.MNA, procs, workers int, rep *HistoryFFTReport, tbl *Table) error {
	for _, m := range cfg.Ms {
		var exactSol, fftSol *core.Solution
		exact, err := minTime(cfg.Repeat, func() error {
			s, err := core.Solve(mna.Sys, mna.Inputs, m, cfg.T, core.Options{HistoryMode: core.HistoryExact})
			exactSol = s
			return err
		})
		if err != nil {
			return fmt.Errorf("experiments: exact history m=%d: %w", m, err)
		}
		solveRep := &core.SolveReport{}
		fftT, err := minTime(cfg.Repeat, func() error {
			s, err := core.Solve(mna.Sys, mna.Inputs, m, cfg.T,
				core.Options{Workers: workers, HistoryMode: core.HistoryFFT, Report: solveRep})
			fftSol = s
			return err
		})
		if err != nil {
			return fmt.Errorf("experiments: fft history m=%d: %w", m, err)
		}
		diff := maxAbsDiff(exactSol.Coefficients(), fftSol.Coefficients())
		if scale := exactSol.Coefficients().MaxAbs(); scale > 1 {
			diff /= scale
		}
		row := HistoryFFTRow{
			GOMAXPROCS: procs, Workers: workers,
			M: m, N: mna.Sys.N(),
			ExactNS: exact.Nanoseconds(), FFTNS: fftT.Nanoseconds(),
			FFTOverExact:  float64(exact) / float64(fftT),
			MaxRelDiff:    diff,
			HistoryEngine: solveRep.HistoryEngine,
		}
		rep.Rows = append(rep.Rows, row)
		tbl.AddRow(fmt.Sprintf("%d", procs), fmt.Sprintf("%d", m), fmtDur(exact), fmtDur(fftT),
			fmt.Sprintf("%.2fx", row.FFTOverExact), fmt.Sprintf("%.2g", diff))
	}
	return nil
}

// maxAbsDiff returns max_ij |a_ij − b_ij|.
func maxAbsDiff(a, b *mat.Dense) float64 {
	worst := 0.0
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			if d := math.Abs(a.At(i, j) - b.At(i, j)); d > worst {
				worst = d
			}
		}
	}
	return worst
}
