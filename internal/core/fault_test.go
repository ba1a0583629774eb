package core_test

// Fault-injection suite for the hardened solver core: every degradation path
// must terminate with the matching typed error (errors.Is) — never a process
// crash — and results served by a fallback factorization tier must still pass
// the golden 1e-12 waveform checks.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"opmsim/internal/core"
	"opmsim/internal/faultinject"
	"opmsim/internal/sparse"
	"opmsim/internal/waveform"
)

func loadGolden(t *testing.T, name string) *goldenFile {
	t.Helper()
	buf, err := os.ReadFile(goldenPath(name))
	if err != nil {
		t.Fatalf("missing golden snapshot: %v", err)
	}
	var g goldenFile
	if err := json.Unmarshal(buf, &g); err != nil {
		t.Fatal(err)
	}
	return &g
}

func compareToGolden(t *testing.T, rows [][]float64, want *goldenFile, tol float64) {
	t.Helper()
	if len(rows) != want.N {
		t.Fatalf("n=%d, snapshot has %d", len(rows), want.N)
	}
	for i := range rows {
		for j := range rows[i] {
			got, ref := rows[i][j], want.X[i][j]
			if math.Abs(got-ref) > tol*(1+math.Abs(ref)) {
				t.Fatalf("X[%d][%d] = %.17g, golden %.17g (|Δ|=%g)", i, j, got, ref, math.Abs(got-ref))
			}
		}
	}
}

func scalar(v float64) *sparse.CSR {
	coo := sparse.NewCOO(1, 1)
	coo.Add(0, 0, v)
	return coo.ToCSR()
}

// asDiagnostic asserts err wraps the given sentinel and extracts the
// *Diagnostic for field checks.
func asDiagnostic(t *testing.T, err, kind error) *core.Diagnostic {
	t.Helper()
	if err == nil {
		t.Fatal("expected an error, got nil")
	}
	if !errors.Is(err, kind) {
		t.Fatalf("errors.Is(err, %v) is false; err = %v", kind, err)
	}
	var d *core.Diagnostic
	if !errors.As(err, &d) {
		t.Fatalf("error is not a *core.Diagnostic: %v", err)
	}
	return d
}

// Acceptance criterion: with the sparse tier force-failed, the dense-LU +
// iterative-refinement fallback must reproduce the quickstart golden waveform
// to 1e-12, and the SolveReport must record the degradation.
func TestFaultDenseFallbackMatchesGolden(t *testing.T) {
	fx := goldenFixtures()[0] // quickstart
	want := loadGolden(t, fx.name)
	rep := &core.SolveReport{}
	rows := solveCoeffRows(t, fx, core.Options{
		Report: rep,
		Fault:  faultinject.FailFactorAt(-1, faultinject.TierSparseLU),
	})
	compareToGolden(t, rows, want, 1e-12)
	if !rep.Degraded() {
		t.Fatal("report does not show degradation")
	}
	if rep.TierSolves[core.TierDenseLU] != fx.m {
		t.Fatalf("dense tier served %d solves, want %d", rep.TierSolves[core.TierDenseLU], fx.m)
	}
	if len(rep.Fallbacks) != 1 || rep.Fallbacks[0].Tier != core.TierDenseLU || rep.Fallbacks[0].Column != -1 {
		t.Fatalf("unexpected fallback record: %+v", rep.Fallbacks)
	}
	if s := rep.Summary(); !strings.Contains(s, "dense-LU+refine") {
		t.Fatalf("summary does not mention the serving tier:\n%s", s)
	}
}

// An ill-conditioned pencil takes the κ₁ fallback without any injection:
// x₁' = −x₁ + u beside the algebraic row 1e-16·x₂ = 1e-16·u gives the
// leading pencil diag(2/h + 1, 1e-16), κ₁ ≈ 1e19 above the 1e14 limit. The
// sparse tier is abandoned with the cond₁ reason, dense LU serves every
// column, and the waveform is still the analytic x₁ = 1 − e^{−t}, x₂ = 1.
func TestCondLimitFallsBackToDenseLU(t *testing.T) {
	diag := func(d0, d1 float64) *sparse.CSR {
		c := sparse.NewCOO(2, 2)
		c.Add(0, 0, d0)
		c.Add(1, 1, d1)
		return c.ToCSR()
	}
	b := sparse.NewCOO(2, 1)
	b.Add(0, 0, 1)
	b.Add(1, 0, 1e-16)
	sys, err := core.NewDAE(diag(1, 0), diag(-1, -1e-16), b.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	m, T := 256, 2.0
	rep := &core.SolveReport{}
	sol, err := core.Solve(sys, []waveform.Signal{waveform.Step(1, 0)}, m, T, core.Options{Report: rep})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Fallbacks) != 1 || rep.Fallbacks[0].Tier != core.TierDenseLU {
		t.Fatalf("fallbacks %+v, want one record for the dense-LU tier", rep.Fallbacks)
	}
	if fb := rep.Fallbacks[0]; !strings.HasPrefix(fb.Reason, "cond₁≈") || !strings.Contains(fb.Reason, "exceeds limit") || fb.Cond <= 1e14 {
		t.Fatalf("fallback reason %q (cond %g), want the cond₁ limit", fb.Reason, fb.Cond)
	}
	if got := rep.TierSolves[core.TierDenseLU]; got != m {
		t.Fatalf("dense tier served %d solves, want all %d: %+v", got, m, rep.TierSolves)
	}
	if rep.TierSolves[core.TierSparseLU] != 0 || rep.TierSolves[core.TierQR] != 0 {
		t.Fatalf("other tiers served solves: %+v", rep.TierSolves)
	}
	// BPF coefficients are interval averages: compare at grid midpoints,
	// where the readout is O(h²) accurate.
	h := T / float64(m)
	for j := 3; j < m; j += 17 {
		tt := (float64(j) + 0.5) * h
		if got, want := sol.StateAt(0, tt), 1-math.Exp(-tt); math.Abs(got-want) > 1e-4 {
			t.Fatalf("x₁(%g) = %g, want %g", tt, got, want)
		}
		if got := sol.StateAt(1, tt); math.Abs(got-1) > 1e-12 {
			t.Fatalf("x₂(%g) = %g, want 1", tt, got)
		}
	}
}

// With sparse and dense both failed, the QR least-squares backstop serves the
// run; for the well-conditioned quickstart pencil it stays within 1e-9 of the
// golden waveform.
func TestFaultQRFallbackStillAccurate(t *testing.T) {
	fx := goldenFixtures()[0]
	want := loadGolden(t, fx.name)
	rep := &core.SolveReport{}
	rows := solveCoeffRows(t, fx, core.Options{
		Report: rep,
		Fault:  faultinject.FailFactorAt(-1, faultinject.TierSparseLU, faultinject.TierDenseLU),
	})
	compareToGolden(t, rows, want, 1e-9)
	if rep.TierSolves[core.TierQR] != fx.m {
		t.Fatalf("QR tier served %d solves, want %d", rep.TierSolves[core.TierQR], fx.m)
	}
}

// All three tiers refused: the run must end with ErrSingularPencil pinned to
// the shared factorization (column −1).
func TestFaultAllTiersFailIsSingularPencil(t *testing.T) {
	fx := goldenFixtures()[0]
	sys, u := fx.sys(t)
	_, err := core.Solve(sys, u, fx.m, fx.T, core.Options{Fault: faultinject.FailFactorAt(-1)})
	d := asDiagnostic(t, err, core.ErrSingularPencil)
	if d.Column != -1 {
		t.Fatalf("Column = %d, want -1 (shared factorization)", d.Column)
	}
}

// The error protocol is the column driver's, so every entry point reports a
// fault with the same Kind, Column and midpoint Time. The entry points run
// on the 256-column fractional line with the FFT history tier (its first
// segment fires at column 64, the first worker tasks of the run) and
// Workers: 4, so firings use the pool; SolveAdaptive runs an integer-order
// system on the same uniform steps instead, because a fractional adaptive
// grid needs pairwise-distinct steps.
type protocolEntry struct {
	name string
	run  func(ctx context.Context, opt core.Options) error
}

func protocolEntries(t *testing.T) (entries []protocolEntry, h float64) {
	fx := goldenFixtures()[1] // fractional_line
	sys, u := fx.sys(t)
	dae, err := core.NewDAE(scalar(1), scalar(-1), scalar(1))
	if err != nil {
		t.Fatal(err)
	}
	h = fx.T / float64(fx.m)
	steps := make([]float64, fx.m)
	for j := range steps {
		steps[j] = h
	}
	unit := sparse.Vec{Idx: []int{0}, Val: []float64{1}}
	delta := &core.PencilDelta{Updates: []core.RankOne{{Term: 0, Scale: 1e-3, U: unit, V: unit}}}
	batch := func(ctx context.Context, opt core.Options, scs []core.Scenario) error {
		_, err := core.SolveBatchCtx(ctx, sys, scs, fx.m, fx.T, core.BatchOptions{Options: opt})
		return err
	}
	return []protocolEntry{
		{"Solve", func(ctx context.Context, opt core.Options) error {
			_, err := core.SolveCtx(ctx, sys, u, fx.m, fx.T, opt)
			return err
		}},
		{"SolveNonlinear", func(ctx context.Context, opt core.Options) error {
			_, err := core.SolveNonlinearCtx(ctx, sys, nopNL{}, u, fx.m, fx.T, core.NonlinearOptions{Options: opt})
			return err
		}},
		{"SolveAdaptive", func(ctx context.Context, opt core.Options) error {
			_, err := core.SolveAdaptiveCtx(ctx, dae, []waveform.Signal{waveform.Step(1, 0)}, steps, opt)
			return err
		}},
		// H0 = HMin = HMax = 2h: every trial is accepted, and its two
		// halves fall on the table's grid.
		{"SolveAdaptiveAuto", func(ctx context.Context, opt core.Options) error {
			_, _, err := core.SolveAdaptiveAutoCtx(ctx, dae, []waveform.Signal{waveform.Step(1, 0)}, fx.T,
				core.AdaptiveOptions{Options: opt, H0: 2 * h, HMin: 2 * h, HMax: 2 * h})
			return err
		}},
		{"SolveBatch", func(ctx context.Context, opt core.Options) error {
			return batch(ctx, opt, []core.Scenario{{U: u}, {U: u}, {U: u}})
		}},
		{"SolveBatchDelta", func(ctx context.Context, opt core.Options) error {
			return batch(ctx, opt, []core.Scenario{{U: u, Delta: delta}, {U: u}})
		}},
	}, h
}

// protocolCase is one injected fault and the diagnostic it must produce.
type protocolCase struct {
	name  string
	kind  error
	col   int
	hooks func(cancel func()) *faultinject.Hooks
	cause error // wrapped by the diagnostic, when non-nil
}

var errInjectedPanic = errors.New("injected worker panic")

var protocolCases = []protocolCase{
	// A NaN injected into column 5 aborts the run at exactly that column,
	// before the poison reaches the history recurrence.
	{name: "nan", kind: core.ErrNonFinite, col: 5,
		hooks: func(func()) *faultinject.Hooks { return faultinject.NaNAt(5, 0) }},
	// A cancel during column 5's delay lets column 5 commit; the ctx check
	// of column 6 stops the run.
	{name: "cancel", kind: core.ErrCancelled, col: 6, cause: context.Canceled,
		hooks: func(cancel func()) *faultinject.Hooks {
			return &faultinject.Hooks{ColumnDelay: func(j int) {
				if j == 5 {
					cancel()
				}
			}}
		}},
	// A panicking history worker is recovered by the pool and surfaces as
	// ErrInternal at the first FFT segment firing — the process must not
	// crash.
	{name: "panic", kind: core.ErrInternal, col: 64,
		hooks: func(func()) *faultinject.Hooks { return faultinject.PanicWorker(errInjectedPanic.Error()) }},
}

func checkProtocol(t *testing.T, entry, fault string) {
	t.Helper()
	entries, h := protocolEntries(t)
	for _, e := range entries {
		for _, c := range protocolCases {
			if (entry != "" && e.name != entry) || (fault != "" && c.name != fault) {
				continue
			}
			// The adaptive solvers' order-1 terms step a recurrence, and
			// their general terms run on the exact tier, which folds on
			// the solving goroutine: no worker task exists for the panic
			// hook to fire in.
			if strings.HasPrefix(e.name, "SolveAdaptive") && c.name == "panic" {
				continue
			}
			t.Run(e.name+"/"+c.name, func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				err := e.run(ctx, core.Options{Workers: 4, HistoryMode: core.HistoryFFT, Fault: c.hooks(cancel)})
				d := asDiagnostic(t, err, c.kind)
				if d.Column != c.col {
					t.Fatalf("Column = %d, want %d", d.Column, c.col)
				}
				if want := (float64(c.col) + 0.5) * h; math.Abs(d.Time-want) > 1e-9*want {
					t.Fatalf("Time = %g, want %g", d.Time, want)
				}
				if c.cause != nil && !errors.Is(err, c.cause) {
					t.Fatalf("error does not wrap %v: %v", c.cause, err)
				}
				if c.kind == core.ErrInternal && (d.Cause == nil || !strings.Contains(d.Cause.Error(), errInjectedPanic.Error())) {
					t.Fatalf("cause does not carry the panic value: %v", d.Cause)
				}
			})
		}
	}
}

func TestFaultErrorProtocol(t *testing.T) { checkProtocol(t, "", "") }

func TestFaultNaNColumnIsNonFinite(t *testing.T) { checkProtocol(t, "Solve", "nan") }

func TestFaultWorkerPanicIsInternal(t *testing.T) { checkProtocol(t, "Solve", "panic") }

// A 1ms deadline against stalled columns must expire mid-run and surface as
// ErrCancelled wrapping context.DeadlineExceeded. (This is the CI
// timeout-guard scenario.)
func TestFaultStallTriggersDeadline(t *testing.T) {
	fx := goldenFixtures()[0]
	sys, u := fx.sys(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := core.SolveCtx(ctx, sys, u, fx.m, fx.T, core.Options{
		Fault: faultinject.StallColumns(200 * time.Microsecond),
	})
	d := asDiagnostic(t, err, core.ErrCancelled)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error does not wrap context.DeadlineExceeded: %v", err)
	}
	if d.Column < 0 || d.Column >= fx.m {
		t.Fatalf("Column = %d, want within [0, %d)", d.Column, fx.m)
	}
}

// An already-cancelled context stops the solve before the first column.
func TestFaultCancelledBeforeStart(t *testing.T) {
	fx := goldenFixtures()[0]
	sys, u := fx.sys(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := core.SolveCtx(ctx, sys, u, fx.m, fx.T, core.Options{})
	d := asDiagnostic(t, err, core.ErrCancelled)
	if d.Column != 0 {
		t.Fatalf("Column = %d, want 0", d.Column)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
}

// The adaptive controller must retry a failed step with a halved h: with the
// first two factorizations force-failed through every tier, the run still
// completes and both the stats and the report count the retries.
func TestFaultAdaptiveRetriesHalvedStep(t *testing.T) {
	sys, err := core.NewDAE(scalar(1), scalar(-1), scalar(1))
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	rep := &core.SolveReport{}
	opt := core.AdaptiveOptions{Tol: 1e-4}
	opt.Report = rep
	opt.Fault = &faultinject.Hooks{FactorFail: func(col, tier int) bool {
		if tier == faultinject.TierSparseLU {
			calls++
		}
		return calls <= 2
	}}
	sol, stats, err := core.SolveAdaptiveAuto(sys, []waveform.Signal{waveform.Step(1, 0)}, 4, opt)
	if err != nil {
		t.Fatalf("controller did not recover from transient factorization failures: %v", err)
	}
	if stats.Retried != 2 {
		t.Fatalf("stats.Retried = %d, want 2", stats.Retried)
	}
	if rep.StepRetries != 2 {
		t.Fatalf("report.StepRetries = %d, want 2", rep.StepRetries)
	}
	// The recovered run must still be accurate: ẋ = −x + 1 from rest.
	tt := 3.5
	if got, want := sol.StateAt(0, tt), 1-math.Exp(-tt); math.Abs(got-want) > 1e-2 {
		t.Fatalf("x(%g) = %g, want %g", tt, got, want)
	}
}

// Exhausting the retry budget surfaces the underlying typed error instead of
// looping forever.
func TestFaultAdaptiveRetryBudgetExhausted(t *testing.T) {
	sys, err := core.NewDAE(scalar(1), scalar(-1), scalar(1))
	if err != nil {
		t.Fatal(err)
	}
	opt := core.AdaptiveOptions{Tol: 1e-4}
	opt.Fault = faultinject.FailFactorAt(faultinject.AnyColumn)
	_, _, err = core.SolveAdaptiveAuto(sys, []waveform.Signal{waveform.Step(1, 0)}, 4, opt)
	asDiagnostic(t, err, core.ErrSingularPencil)
}

// A column SolveAdaptiveAuto places reports its accepted interval's
// midpoint, also where the controller rejected a longer trial first.
func TestFaultAdaptiveAutoNaNTimeIsMidpoint(t *testing.T) {
	sys, err := core.NewDAE(scalar(1), scalar(-1), scalar(1))
	if err != nil {
		t.Fatal(err)
	}
	u := []waveform.Signal{waveform.Pulse(0, 1, 1.0, 0.01, 0.01, 0.3, 0)}
	sol, _, err := core.SolveAdaptiveAuto(sys, u, 4, core.AdaptiveOptions{Tol: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	edges := sol.Basis().(interface{ Edges() []float64 }).Edges()
	for col := 0; col+1 < len(edges); col++ {
		opt := core.AdaptiveOptions{Tol: 1e-4}
		opt.Fault = faultinject.NaNAt(col, 0)
		_, _, err := core.SolveAdaptiveAuto(sys, u, 4, opt)
		d := asDiagnostic(t, err, core.ErrNonFinite)
		if mid := (edges[col] + edges[col+1]) / 2; d.Column != col || math.Abs(d.Time-mid) > 1e-12 {
			t.Fatalf("NaN at column %d: Column %d, Time %g; want %d, %g", col, d.Column, d.Time, col, mid)
		}
	}
}

// The explicit-steps adaptive path shares the per-column guards.
func TestFaultAdaptiveExplicitNaN(t *testing.T) { checkProtocol(t, "SolveAdaptive", "nan") }

// nopNL is a zero nonlinearity, so SolveNonlinear behaves like Solve while
// still exercising the Newton path's guards.
type nopNL struct{}

func (nopNL) Eval(x, out []float64) {
	for i := range out {
		out[i] = 0
	}
}
func (nopNL) StampJacobian(x []float64, jac *sparse.COO) {}

// The Newton path shares the corruption and cancellation guards.
func TestFaultNonlinearNaNAndCancel(t *testing.T) {
	checkProtocol(t, "SolveNonlinear", "nan")
	checkProtocol(t, "SolveNonlinear", "cancel")
}

// A fault-free run with a report attached must stay entirely on the sparse
// fast path — the hardening must not change the production tier.
func TestFaultFreeRunStaysOnSparseTier(t *testing.T) {
	fx := goldenFixtures()[0]
	rep := &core.SolveReport{}
	solveCoeffRows(t, fx, core.Options{Report: rep})
	if rep.Degraded() {
		t.Fatalf("fault-free run degraded: %s", rep.Summary())
	}
	if rep.TierSolves[core.TierSparseLU] != fx.m {
		t.Fatalf("sparse tier served %d solves, want %d", rep.TierSolves[core.TierSparseLU], fx.m)
	}
	if rep.Columns != fx.m {
		t.Fatalf("report.Columns = %d, want %d", rep.Columns, fx.m)
	}
}

// overlapRun is what one faulted batch run shows its caller: the error, the
// OnColumn sequence with a digest of each call's columns, the checkpoint
// column count and the report's committed columns.
type overlapRun struct {
	err     *core.Diagnostic
	cols    []int
	digests []uint64
	cpCols  int
	columns int
}

// overlapEntry is one batch for the overlapped-driver rows.
type overlapEntry struct {
	name string
	sys  *core.System
	scs  []core.Scenario
	m    int
	T    float64
}

// overlapEntries are three shapes of the group step a K = 70, PanelWidth 32
// batch (groups of 32, 32 and 6) takes: integer-order recurrences only,
// a fractional system's group history engine filling its term panels (the
// "member" rows), and SMW members.
func overlapEntries(t *testing.T, K int) []overlapEntry {
	t.Helper()
	scenarios := func(u []waveform.Signal, delta bool) []core.Scenario {
		scs := make([]core.Scenario, K)
		for s := range scs {
			amp := 1 + 0.01*float64(s)
			us := append([]waveform.Signal(nil), u...)
			u0 := u[0]
			us[0] = func(t float64) float64 { return amp * u0(t) }
			scs[s] = core.Scenario{U: us}
			if delta {
				unit := sparse.Vec{Idx: []int{0}, Val: []float64{1}}
				scs[s].Delta = &core.PencilDelta{Updates: []core.RankOne{{Term: 0, Scale: 1e-3 * amp, U: unit, V: unit}}}
			}
		}
		return scs
	}
	quick, frac := goldenFixtures()[0], goldenFixtures()[1]
	qsys, qu := quick.sys(t)
	fsys, fu := frac.sys(t)
	return []overlapEntry{
		{"panel", qsys, scenarios(qu, false), quick.m, quick.T},
		{"member", fsys, scenarios(fu, false), frac.m, frac.T},
		{"smw", qsys, scenarios(qu, true), quick.m, quick.T},
	}
}

// runOverlapFault runs one batch with the named fault at column col: a
// cancel from OnColumn(col), a NaN at column col, or a panic inside the
// group tasks at column col.
func runOverlapFault(t *testing.T, sys *core.System, scs []core.Scenario, m int, T float64, workers int, fault string, col int) overlapRun {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var run overlapRun
	cp := &core.Checkpoint{}
	rep := &core.SolveReport{}
	opt := core.BatchOptions{Options: core.Options{Workers: workers, Report: rep}, PanelWidth: 32, CheckpointEvery: 4}
	opt.OnCheckpoint = func(d *core.CheckpointDelta) {
		if err := cp.ApplyCheckpoint(d); err != nil {
			t.Errorf("apply delta [%d,%d): %v", d.From, d.To, err)
		}
	}
	opt.OnColumn = func(c int, _ float64, cols [][]float64) {
		h := uint64(14695981039346656037)
		for _, x := range cols {
			for _, v := range x {
				h = (h ^ math.Float64bits(v)) * 1099511628211
			}
		}
		run.cols = append(run.cols, c)
		run.digests = append(run.digests, h)
		if fault == "cancel" && c == col {
			cancel()
		}
	}
	switch fault {
	case "nan":
		opt.Fault = faultinject.NaNAt(col, 0)
	case "panic":
		opt.Fault = &faultinject.Hooks{CorruptColumn: func(c int, _ []float64) {
			if c == col {
				panic(errInjectedPanic.Error())
			}
		}}
	}
	_, err := core.SolveBatchCtx(ctx, sys, scs, m, T, opt)
	if !errors.As(err, &run.err) {
		t.Fatalf("workers=%d %s: error is not a *core.Diagnostic: %v", workers, fault, err)
	}
	run.cpCols, run.columns = cp.Columns, rep.Columns
	return run
}

// With several scenario groups on the pool, column j's OnColumn call runs
// while column j+1's groups solve. A cancel from OnColumn(j), a NaN at
// column j and a panic inside the group tasks at column j must still give
// the Workers 1 run's (fully serial) Kind, Column, Time, OnColumn sequence
// and columns, checkpoint column count and committed-column count.
func TestFaultOverlappedDriverMatchesWorkersOne(t *testing.T) {
	const K, col = 70, 9
	for _, e := range overlapEntries(t, K) {
		for _, fc := range []struct {
			fault string
			kind  error
			col   int
		}{
			{"cancel", core.ErrCancelled, col + 1},
			{"nan", core.ErrNonFinite, col},
			{"panic", core.ErrInternal, col},
		} {
			t.Run(e.name+"/"+fc.fault, func(t *testing.T) {
				ref := runOverlapFault(t, e.sys, e.scs, e.m, e.T, 1, fc.fault, col)
				if !errors.Is(ref.err, fc.kind) || ref.err.Column != fc.col {
					t.Fatalf("workers=1: %v at column %d, want %v at %d", ref.err.Kind, ref.err.Column, fc.kind, fc.col)
				}
				if len(ref.cols) != fc.col || ref.columns != fc.col*K {
					t.Fatalf("workers=1: %d OnColumn calls, %d columns committed; want %d and %d", len(ref.cols), ref.columns, fc.col, fc.col*K)
				}
				if ref.cpCols != fc.col {
					t.Fatalf("workers=1: checkpoint holds %d columns, want %d", ref.cpCols, fc.col)
				}
				for _, workers := range []int{2, 4} {
					got := runOverlapFault(t, e.sys, e.scs, e.m, e.T, workers, fc.fault, col)
					if got.err.Kind != ref.err.Kind || got.err.Column != ref.err.Column ||
						math.Float64bits(got.err.Time) != math.Float64bits(ref.err.Time) {
						t.Fatalf("workers=%d: %v at column %d (t=%g), workers=1 gave %v at %d (t=%g)",
							workers, got.err.Kind, got.err.Column, got.err.Time, ref.err.Kind, ref.err.Column, ref.err.Time)
					}
					if fmt.Sprint(got.cols, got.digests) != fmt.Sprint(ref.cols, ref.digests) {
						t.Fatalf("workers=%d: OnColumn calls %v, workers=1 gave %v (or their columns differ)", workers, got.cols, ref.cols)
					}
					if got.cpCols != ref.cpCols || got.columns != ref.columns {
						t.Fatalf("workers=%d: checkpoint %d / committed %d columns, workers=1 gave %d / %d",
							workers, got.cpCols, got.columns, ref.cpCols, ref.columns)
					}
				}
			})
		}
	}
}

// A panic inside OnColumn(j) reaches the caller after the next column's
// group tasks have finished, and leaves that column uncommitted.
func TestFaultOnColumnPanicLeavesNextColumnUncommitted(t *testing.T) {
	const K, col = 70, 5
	e := overlapEntries(t, K)[0]
	for _, workers := range []int{1, 2, 4} {
		rep := &core.SolveReport{}
		var calls []int
		func() {
			defer func() {
				if r := recover(); r != errInjectedPanic {
					t.Fatalf("workers=%d: recovered %v, want the hook's panic", workers, r)
				}
			}()
			opt := core.BatchOptions{Options: core.Options{Workers: workers, Report: rep}, PanelWidth: 32}
			opt.OnColumn = func(c int, _ float64, _ [][]float64) {
				calls = append(calls, c)
				if c == col {
					panic(errInjectedPanic)
				}
			}
			_, err := core.SolveBatch(e.sys, e.scs, e.m, e.T, opt)
			t.Fatalf("workers=%d: solve returned %v past a panicking hook", workers, err)
		}()
		if len(calls) != col+1 || rep.Columns != (col+1)*K {
			t.Fatalf("workers=%d: %d OnColumn calls, %d columns committed; want %d and %d", workers, len(calls), rep.Columns, col+1, (col+1)*K)
		}
	}
}
