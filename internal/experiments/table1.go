package experiments

import (
	"fmt"
	"math"
	"time"

	"opmsim/internal/core"
	"opmsim/internal/freqdom"
	"opmsim/internal/mat"
	"opmsim/internal/netgen"
	"opmsim/internal/sparse"
	"opmsim/internal/waveform"
)

// TableIConfig parameterizes the §V-A experiment.
type TableIConfig struct {
	// Line is the fractional transmission-line model.
	Line netgen.FractionalLineConfig
	// T is the simulation span (paper: 2.7 ns).
	T float64
	// M is the OPM step count (paper: 8).
	M int
	// FFT1 and FFT2 are the frequency sample counts (paper: 8 and 100).
	FFT1, FFT2 int
	// Repeat re-runs each solver to stabilize the timing measurement.
	Repeat int
}

// DefaultTableI reproduces the paper's parameters.
func DefaultTableI() TableIConfig {
	return TableIConfig{
		Line: netgen.DefaultFractionalLine(),
		T:    2.7e-9, M: 8, FFT1: 8, FFT2: 100, Repeat: 50,
	}
}

// TableIResult carries the structured outcome for tests and benches.
type TableIResult struct {
	OPMTime, FFT1Time, FFT2Time time.Duration
	// ErrFFT1/ErrFFT2 are eq. (30) errors of each FFT variant versus OPM,
	// in dB, matching the paper's metric (which uses OPM as the reference
	// and reports "−" in OPM's own row).
	ErrFFT1, ErrFFT2 float64
}

// TableI runs the §V-A comparison: OPM with m steps versus the
// frequency-domain method at two sampling densities, reporting CPU time and
// the eq. (30) relative error (FFT vs OPM, as in the paper).
func TableI(cfg TableIConfig) (*Table, *TableIResult, error) {
	if cfg.Repeat < 1 {
		cfg.Repeat = 1
	}
	// Drives: a fast pulse into port 1, port 2 idle — a typical signal-
	// integrity stimulus on the paper's 2.7 ns window.
	drive1 := waveform.Pulse(0, 1e-3, 0.1e-9, 0.1e-9, 0.1e-9, 0.8e-9, 0)
	drive2 := waveform.Zero()
	mna, err := netgen.FractionalLine(cfg.Line, drive1, drive2)
	if err != nil {
		return nil, nil, err
	}
	alpha := cfg.Line.Order

	// OPM.
	var opmSol *core.Solution
	opmTime, err := timeIt(cfg.Repeat, func() error {
		s, err := core.Solve(mna.Sys, mna.Inputs, cfg.M, cfg.T, core.Options{})
		opmSol = s
		return err
	})
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: OPM solve: %w", err)
	}

	// FFT baselines need the dense (E, A, B) triple of E·dᵅx = A·x + B·u.
	var eD, aD, bD = termDense(mna.Sys, alpha), termDense(mna.Sys, 0).Scale(-1), mna.Sys.B.ToDense()
	var fft1, fft2 *freqdom.Result
	fft1Time, err := timeIt(cfg.Repeat, func() error {
		r, err := freqdom.Solve(eD, aD, bD, mna.Inputs, alpha, cfg.T, cfg.FFT1)
		fft1 = r
		return err
	})
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: FFT-1 solve: %w", err)
	}
	fft2Time, err := timeIt(cfg.Repeat, func() error {
		r, err := freqdom.Solve(eD, aD, bD, mna.Inputs, alpha, cfg.T, cfg.FFT2)
		fft2 = r
		return err
	})
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: FFT-2 solve: %w", err)
	}

	// Compare the two output ports on the OPM midpoint grid (eq. 30 with
	// OPM as the reference).
	times := waveform.UniformTimes(cfg.M, cfg.T)
	yOPM := opmSol.SampleOutputs(times)
	err1, err := waveform.RelErrDBVec(fdOutputs(mna.Sys.C, fft1, times), yOPM)
	if err != nil {
		return nil, nil, err
	}
	err2, err := waveform.RelErrDBVec(fdOutputs(mna.Sys.C, fft2, times), yOPM)
	if err != nil {
		return nil, nil, err
	}

	res := &TableIResult{
		OPMTime: opmTime, FFT1Time: fft1Time, FFT2Time: fft2Time,
		ErrFFT1: err1, ErrFFT2: err2,
	}
	tbl := &Table{
		Title:  fmt.Sprintf("Table I — fractional line (n=%d, α=%g, T=%.3gns, m=%d)", mna.Sys.N(), alpha, cfg.T*1e9, cfg.M),
		Header: []string{"Method", "CPU time", "RelErr vs OPM", "Paper CPU", "Paper err"},
	}
	tbl.AddRow(fmt.Sprintf("FFT-1 (N=%d)", cfg.FFT1), fmtDur(fft1Time), fmt.Sprintf("%.1f dB", err1), "6.09 ms", "-29.2 dB")
	tbl.AddRow(fmt.Sprintf("FFT-2 (N=%d)", cfg.FFT2), fmtDur(fft2Time), fmt.Sprintf("%.1f dB", err2), "40.7 ms", "-46.5 dB")
	tbl.AddRow(fmt.Sprintf("OPM   (m=%d)", cfg.M), fmtDur(opmTime), "—", "3.56 ms", "—")
	tbl.Notes = append(tbl.Notes,
		"paper shape: OPM fastest; FFT-2 (more samples) closer to OPM than FFT-1",
		"errors follow eq. (30) with OPM as reference, as in the paper")
	return tbl, res, nil
}

// fdOutputs samples a frequency-domain result at the given times and maps
// states to outputs through C (q×n, nil meaning identity).
func fdOutputs(c *sparse.CSR, r *freqdom.Result, times []float64) [][]float64 {
	n := r.X.Rows()
	states := make([][]float64, n)
	for i := 0; i < n; i++ {
		states[i] = r.SampleState(i, times)
	}
	if c == nil {
		return states
	}
	out := make([][]float64, c.R)
	xv := make([]float64, n)
	for q := range out {
		out[q] = make([]float64, len(times))
	}
	for k := range times {
		for i := 0; i < n; i++ {
			xv[i] = states[i][k]
		}
		y := c.MulVec(xv, nil)
		for q := range out {
			out[q][k] = y[q]
		}
	}
	return out
}

// termDense extracts the coefficient matrix of the term with the given
// order as a dense matrix; it panics if absent (internal misuse).
func termDense(sys *core.System, order float64) *mat.Dense {
	for _, t := range sys.Terms {
		//lint:ignore floateq exact order value keys the term lookup; orders are set, not computed
		if t.Order == order {
			return t.Coeff.ToDense()
		}
	}
	panic(fmt.Sprintf("experiments: system has no term of order %g", order))
}

// clock is timeIt's time source; tests substitute a deterministic one.
var clock = time.Now

// timeIt runs f repeat times and returns the average duration of one call.
func timeIt(repeat int, f func() error) (time.Duration, error) {
	start := clock()
	for i := 0; i < repeat; i++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	return clock().Sub(start) / time.Duration(repeat), nil
}

// minTime runs f repeat times and returns the fastest run (less noisy than
// the mean for ablation ratios).
func minTime(repeat int, f func() error) (time.Duration, error) {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < repeat; i++ {
		one, err := timeIt(1, f)
		if err != nil {
			return 0, err
		}
		if one < best {
			best = one
		}
	}
	return best, nil
}

// fmtDur renders a duration compactly.
func fmtDur(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%d ns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1f µs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2f ms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2f s", d.Seconds())
	}
}
