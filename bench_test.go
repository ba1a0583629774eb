// Package-level benchmarks: one family per table/figure of the paper, as
// indexed in DESIGN.md. Run with
//
//	go test -bench=. -benchmem
//
// BenchmarkTableI_* regenerate the §V-A comparison, BenchmarkTableII_* the
// §V-B comparison (on the laptop-scale grid; use cmd/opm-bench -full for the
// paper-scale instance), BenchmarkAdaptive_* the §III-B claim,
// BenchmarkOpMatrix_* the §IV matrix construction, BenchmarkBasis_* the §I
// basis discussion, and BenchmarkScaling_* the §IV complexity claim.
package main

import (
	"fmt"
	"testing"

	"opmsim/internal/basis"
	"opmsim/internal/core"
	"opmsim/internal/fft"
	"opmsim/internal/freqdom"
	"opmsim/internal/mat"
	"opmsim/internal/mor"
	"opmsim/internal/netgen"
	"opmsim/internal/sparse"
	"opmsim/internal/transient"
	"opmsim/internal/waveform"
)

// --- Table I: fractional transmission line, OPM vs FFT-1 vs FFT-2 ---------

func lineFixture(b *testing.B) (*core.System, []waveform.Signal, float64, float64) {
	b.Helper()
	cfg := netgen.DefaultFractionalLine()
	drive := waveform.Pulse(0, 1e-3, 0.1e-9, 0.1e-9, 0.1e-9, 0.8e-9, 0)
	mna, err := netgen.FractionalLine(cfg, drive, waveform.Zero())
	if err != nil {
		b.Fatal(err)
	}
	return mna.Sys, mna.Inputs, cfg.Order, 2.7e-9
}

func BenchmarkTableI_OPM(b *testing.B) {
	sys, u, _, T := lineFixture(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Solve(sys, u, 8, T, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchFFT(b *testing.B, n int) {
	sys, u, alpha, T := lineFixture(b)
	var eD, aD, bD *mat.Dense
	for _, t := range sys.Terms {
		switch t.Order {
		case alpha:
			eD = t.Coeff.ToDense()
		case 0:
			aD = t.Coeff.ToDense().Scale(-1)
		}
	}
	bD = sys.B.ToDense()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := freqdom.Solve(eD, aD, bD, u, alpha, T, n); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableI_FFT1(b *testing.B) { benchFFT(b, 8) }
func BenchmarkTableI_FFT2(b *testing.B) { benchFFT(b, 100) }

// --- Table II: 3-D power grid, OPM on NA vs classical methods on MNA ------

type gridFixture struct {
	na, mna *core.System
	naIn    []waveform.Signal
	mnaIn   []waveform.Signal
	e, a, b *sparse.CSR
}

func newGridFixture(b *testing.B, rows int) *gridFixture {
	b.Helper()
	cfg := netgen.DefaultPowerGrid()
	cfg.Rows, cfg.Cols = rows, rows
	grid, err := netgen.PowerGrid3D(cfg)
	if err != nil {
		b.Fatal(err)
	}
	na, err := grid.Netlist.NA()
	if err != nil {
		b.Fatal(err)
	}
	mna, err := grid.Netlist.MNA()
	if err != nil {
		b.Fatal(err)
	}
	e, a, bb, err := mna.DAE()
	if err != nil {
		b.Fatal(err)
	}
	return &gridFixture{na: na.Sys, mna: mna.Sys, naIn: na.Inputs, mnaIn: mna.Inputs, e: e, a: a, b: bb}
}

const (
	tableIITime = 10e-9
	tableIIStep = 10e-12
)

func BenchmarkTableII_OPM_NA(b *testing.B) {
	fx := newGridFixture(b, 16)
	m := int(tableIITime / tableIIStep)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Solve(fx.na, fx.naIn, m, tableIITime, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchTransient(b *testing.B, method transient.Method, h float64) {
	fx := newGridFixture(b, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := transient.Simulate(fx.e, fx.a, fx.b, fx.mnaIn, tableIITime, h, method, transient.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableII_BEuler_h10ps(b *testing.B) { benchTransient(b, transient.BackwardEuler, 10e-12) }
func BenchmarkTableII_BEuler_h5ps(b *testing.B)  { benchTransient(b, transient.BackwardEuler, 5e-12) }
func BenchmarkTableII_BEuler_h1ps(b *testing.B)  { benchTransient(b, transient.BackwardEuler, 1e-12) }
func BenchmarkTableII_Gear_h10ps(b *testing.B)   { benchTransient(b, transient.Gear2, 10e-12) }
func BenchmarkTableII_Trap_h10ps(b *testing.B)   { benchTransient(b, transient.Trapezoidal, 10e-12) }

// --- Adaptive step (§III-B) ------------------------------------------------

func adaptiveFixture(b *testing.B) (*core.System, []waveform.Signal) {
	b.Helper()
	c := sparse.NewCOO(1, 1)
	c.Add(0, 0, 1)
	one := c.ToCSR()
	sys, err := core.NewDAE(one, one.Scale(-1), one)
	if err != nil {
		b.Fatal(err)
	}
	return sys, []waveform.Signal{waveform.Pulse(0, 1, 2, 0.01, 0.01, 1, 0)}
}

func BenchmarkAdaptive_Uniform4096(b *testing.B) {
	sys, u := adaptiveFixture(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Solve(sys, u, 4096, 8, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAdaptive_Auto(b *testing.B) {
	sys, u := adaptiveFixture(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.SolveAdaptiveAuto(sys, u, 8, core.AdaptiveOptions{Tol: 1e-4}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- History engine: exact fold vs FFT tier (§IV cost split) ---------------

// benchHistory times a full fractional solve, which the O(nm²) history sum
// dominates for m ≥ 512; opt selects the history implementation.
func benchHistory(b *testing.B, m int, sections int, opt core.Options) {
	cfg := netgen.DefaultFractionalLine()
	cfg.Sections = sections
	drive := waveform.Pulse(0, 1e-3, 0.1e-9, 0.1e-9, 0.1e-9, 0.8e-9, 0)
	mna, err := netgen.FractionalLine(cfg, drive, waveform.Zero())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Solve(mna.Sys, mna.Inputs, m, 2.7e-9, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHistory_Exact(b *testing.B) {
	// HistoryExact pinned: with HistoryAuto the large-m runs would silently
	// measure the FFT tier instead of the exact fold.
	opt := core.Options{HistoryMode: core.HistoryExact}
	for _, m := range []int{512, 2048, 4096} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) { benchHistory(b, m, 7, opt) })
	}
	// A wider line (more states per column) shifts work from loop overhead
	// to the axpy kernels.
	b.Run("n=64/m=1024", func(b *testing.B) { benchHistory(b, 1024, 64, opt) })
}

// The HistoryFFT sweep shares one m axis across both tiers so the crossover
// is read directly off the ns/op columns; cmd/opm-bench's historyfft
// experiment emits the same sweep as BENCH_history_fft.json.
func benchHistoryFFTFamily(b *testing.B, opt core.Options) {
	for _, m := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) { benchHistory(b, m, 7, opt) })
	}
}

func BenchmarkHistoryFFT_Exact(b *testing.B) {
	benchHistoryFFTFamily(b, core.Options{HistoryMode: core.HistoryExact})
}

func BenchmarkHistoryFFT_FFT(b *testing.B) {
	benchHistoryFFTFamily(b, core.Options{HistoryMode: core.HistoryFFT})
}

// --- Operational-matrix construction (§IV, eq. 21–23) ----------------------

func BenchmarkOpMatrix_FractionalCoeffs(b *testing.B) {
	for _, m := range []int{64, 512, 4096} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			bpf, err := basis.NewBPF(m, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = bpf.DiffCoeffs(0.5)
			}
		})
	}
}

func BenchmarkOpMatrix_AdaptiveParlett(b *testing.B) {
	steps := make([]float64, 64)
	h := 0.01
	for i := range steps {
		steps[i] = h
		h *= 1.05
	}
	ab, err := basis.NewAdaptiveBPF(steps)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ab.DiffMatrixAlpha(0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Basis ablation (§I) ----------------------------------------------------

func benchBasis(b *testing.B, mk func() (basis.Basis, error)) {
	e := mat.NewDenseFrom(1, 1, []float64{1})
	a := mat.NewDenseFrom(1, 1, []float64{-1})
	bm := mat.NewDenseFrom(1, 1, []float64{1})
	u := []waveform.Signal{waveform.Sine(1, 0.5, 0)}
	bas, err := mk()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SolveGeneric(e, a, bm, u, bas); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBasis_BPF(b *testing.B) {
	benchBasis(b, func() (basis.Basis, error) { return basis.NewBPF(32, 2) })
}
func BenchmarkBasis_Walsh(b *testing.B) {
	benchBasis(b, func() (basis.Basis, error) { return basis.NewWalsh(32, 2) })
}
func BenchmarkBasis_Haar(b *testing.B) {
	benchBasis(b, func() (basis.Basis, error) { return basis.NewHaar(32, 2) })
}
func BenchmarkBasis_Legendre(b *testing.B) {
	benchBasis(b, func() (basis.Basis, error) { return basis.NewLegendre(32, 2) })
}

// --- Complexity scaling (§IV) ----------------------------------------------

func BenchmarkScaling_StatesN(b *testing.B) {
	for _, rows := range []int{8, 16, 24} {
		fx := newGridFixture(b, rows)
		b.Run(fmt.Sprintf("n=%d", fx.mna.N()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Solve(fx.mna, fx.mnaIn, 200, tableIITime, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkScaling_ColumnsM_Fractional(b *testing.B) {
	sys, u, _, T := lineFixture(b)
	for _, m := range []int{128, 256, 512} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Solve(sys, u, m, T, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Substrate micro-benchmarks ---------------------------------------------

func BenchmarkSparseLU_Grid(b *testing.B) {
	fx := newGridFixture(b, 16)
	m := sparse.Combine(200e9, fx.e, 1, fx.a.Scale(-1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sparse.Factor(m, sparse.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFFT_1024(b *testing.B) {
	x := make([]float64, 1024)
	for i := range x {
		x[i] = float64(i % 17)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = fft.FFTReal(x)
	}
}

func BenchmarkFFT_Bluestein100(b *testing.B) {
	x := make([]float64, 100)
	for i := range x {
		x[i] = float64(i % 13)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = fft.FFTReal(x)
	}
}

// --- MOR ablation ------------------------------------------------------------

func BenchmarkMOR_ReduceAndSolve(b *testing.B) {
	fx := newGridFixture(b, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rom, err := mor.Reduce(fx.e, fx.a, fx.b, 24, 1e9)
		if err != nil {
			b.Fatal(err)
		}
		sys, err := rom.System(nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.Solve(sys, fx.mnaIn, 1000, tableIITime, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Batched multi-scenario solve engine -------------------------------------

// batchBenchScenarios builds k amplitude-scaled corners of the fixture's
// inputs, the workload SolveBatch targets.
func batchBenchScenarios(inputs []waveform.Signal, k int) []core.Scenario {
	scs := make([]core.Scenario, k)
	for s := 0; s < k; s++ {
		scale := 0.5 + float64(s)/float64(k)
		u := make([]waveform.Signal, len(inputs))
		for i, base := range inputs {
			base, scale := base, scale
			u[i] = func(t float64) float64 { return scale * base(t) }
		}
		scs[s] = core.Scenario{U: u}
	}
	return scs
}

func BenchmarkSolveBatch_Sequential32(b *testing.B) {
	fx := newGridFixture(b, 8)
	scs := batchBenchScenarios(fx.naIn, 32)
	m := 256
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache := core.NewFactorCache(0)
		for _, sc := range scs {
			if _, err := core.Solve(fx.na, sc.U, m, tableIITime, core.Options{FactorCache: cache}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkSolveBatch_Batch32(b *testing.B) {
	fx := newGridFixture(b, 8)
	scs := batchBenchScenarios(fx.naIn, 32)
	m := 256
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SolveBatch(fx.na, scs, m, tableIITime, core.BatchOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// montecarloBenchScenarios draws k component-tolerance scenarios of an RC
// ladder (scenario 0 nominal), the workload of the parameter-varying batch:
// every scenario shares the inputs but perturbs the pencil by a low-rank
// delta.
func montecarloBenchScenarios(b *testing.B, k int) (*core.System, []core.Scenario) {
	b.Helper()
	lad, _, err := netgen.RCLadderNetlist(40, 100, 1e-9, waveform.Step(1, 0))
	if err != nil {
		b.Fatal(err)
	}
	model, err := lad.MNA()
	if err != nil {
		b.Fatal(err)
	}
	names := netgen.PerturbableElements(lad, 8)
	scs := make([]core.Scenario, k)
	for s := 0; s < k; s++ {
		scs[s] = core.Scenario{U: model.Inputs}
		perts, err := netgen.MonteCarloPerturb(lad, names, 1, s, 0.1)
		if err != nil {
			b.Fatal(err)
		}
		if len(perts) == 0 {
			continue
		}
		d, err := lad.StampDelta(model, perts)
		if err != nil {
			b.Fatal(err)
		}
		scs[s].Delta = d
	}
	return model.Sys, scs
}

// SMW factor updates against the shared nominal factorization...
func BenchmarkSolveBatch_MonteCarloSMW32(b *testing.B) {
	sys, scs := montecarloBenchScenarios(b, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SolveBatch(sys, scs, 128, 5e-7, core.BatchOptions{UpdateRankLimit: 64}); err != nil {
			b.Fatal(err)
		}
	}
}

// ...versus refactorizing every perturbed scenario from scratch.
func BenchmarkSolveBatch_MonteCarloRefactor32(b *testing.B) {
	sys, scs := montecarloBenchScenarios(b, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SolveBatch(sys, scs, 128, 5e-7, core.BatchOptions{UpdateRankLimit: -1}); err != nil {
			b.Fatal(err)
		}
	}
}

// Kernel-level comparison on the grid's backward-Euler MNA matrix: one
// 32-wide sparse panel solve versus 32 scalar solves of the same columns.
func sparseBenchFactor(b *testing.B) (*sparse.Factorization, int) {
	b.Helper()
	fx := newGridFixture(b, 16)
	msys := sparse.Combine(2/tableIIStep, fx.e, -1, fx.a)
	f, err := sparse.Factor(msys, sparse.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return f, fx.mna.N()
}

func BenchmarkSolveBatch_SparsePanel32(b *testing.B) {
	f, n := sparseBenchFactor(b)
	const w = 32
	rhs := mat.NewDense(n, w)
	for i := 0; i < n; i++ {
		ri := rhs.Row(i)
		for j := range ri {
			ri[j] = float64((i+j)%17) - 8
		}
	}
	x := mat.NewDense(n, w)
	s := f.NewPanelScratch(w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.SolvePanelInto(x, rhs, s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveBatch_SparseScalar32(b *testing.B) {
	f, n := sparseBenchFactor(b)
	const w = 32
	cols := make([][]float64, w)
	for j := range cols {
		cols[j] = make([]float64, n)
		for i := range cols[j] {
			cols[j][i] = float64((i+j)%17) - 8
		}
	}
	x := make([]float64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < w; j++ {
			if err := f.SolveInto(x, cols[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Blocked dense multi-RHS kernels -----------------------------------------

func denseBenchLU(b *testing.B, n int) (*mat.LU, *mat.Dense) {
	b.Helper()
	a := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		ai := a.Row(i)
		for j := range ai {
			ai[j] = float64((i*31+j*17)%23) / 23
		}
		ai[i] += float64(n)
	}
	f, err := mat.LUFactor(a)
	if err != nil {
		b.Fatal(err)
	}
	rhs := mat.NewDense(n, 64)
	for i := 0; i < n; i++ {
		ri := rhs.Row(i)
		for j := range ri {
			ri[j] = float64((i+j)%13) - 6
		}
	}
	return f, rhs
}

func BenchmarkSolveMatrixPanel_Into(b *testing.B) {
	f, rhs := denseBenchLU(b, 256)
	x := mat.NewDense(256, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.SolveMatrixInto(x, rhs)
	}
}

func BenchmarkSolveMatrixPanel_PerColumn(b *testing.B) {
	f, rhs := denseBenchLU(b, 256)
	n := 256
	col := make([]float64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			for r := 0; r < n; r++ {
				col[r] = rhs.Row(r)[j]
			}
			f.Solve(col)
		}
	}
}
