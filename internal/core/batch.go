package core

//lint:hot

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"opmsim/internal/basis"
	"opmsim/internal/mat"
	"opmsim/internal/waveform"
)

// The column driver. Every OPM solver but SolveGeneric — Solve,
// SolveNonlinear, both adaptive solvers and both SolveBatch engines — is the
// left-to-right substitution of eq. (28) over the BPF columns, and
// columnRun.run is the one place that loop is written (SolveAdaptiveAuto's
// step extends the grid as its controller accepts steps). Per column it runs, in this order: the ctx check, Fault.ColumnDelay,
// the group steps, the first-error scan, the Columns/TierSolves accounting,
// and the column's post work: the OnColumn hook and the checkpoint deltas.
// Each group step assembles its scenarios' right-hand sides, solves them and
// finishes every member in one pass (scenState.finish: Fault.CorruptColumn,
// the non-finite screen and the hook values x + x0), so the post-solve work
// on all K·n values runs inside the group tasks, not after the barrier. When
// several groups fan out over the pool, column j's post work runs on the
// calling goroutine while column j+1's groups solve (see run); a run of one
// group, or any run under Options.Workers 1, keeps the serial order above.
// There is one right-hand-side path: panelStep.rhs (panel.go) builds the
// column's eq. (28) right-hand sides for a group as one n×w panel, at every
// width, 1 included. The solvers differ only in how they solve it:
//
//   - panelStep: the group's panel solve through the shared factorization
//     (or a refactored scenario's private one), then SMW members' Woodbury
//     corrections. Every Solve and SolveBatch group takes it; a one-scenario
//     Solve is a group of one.
//   - newtonStep: SolveNonlinear's damped Newton iteration on a one-wide
//     panel step's right-hand side.
//   - adaptiveStep: both adaptive solvers' per-step-size factorizations on
//     a one-wide panel step's right-hand side; under SolveAdaptiveAuto a
//     column pair per accepted controller step.
//
// The batch engine runs K scenarios that share one circuit pencil through a
// single factorization and blocked multi-RHS kernels: just as one
// factorization of M = Σ_k c₀⁽ᵏ⁾·E_k serves all m BPF columns (the paper's §IV
// amortization), it serves all K scenarios of a corner set or sweep, and
// solving the K column-j right-hand sides as one n×K panel amortizes the
// factor's irregular index streams over K contiguous updates. Scenarios are
// partitioned into contiguous groups of PanelWidth, a pure function of K and
// PanelWidth; groups own disjoint state and fan out over the shared worker
// pool (in order on the calling goroutine under Options.Workers 1), so
// results never depend on Options.Workers or scheduling. At width 1 the
// panel kernels are the one-vector kernels (MulVecAdd, solveInto), so a
// lone scenario costs what the scalar loop costs.
//
// Determinism contract: SolveBatch is bitwise-identical, scenario by
// scenario, to K sequential Solve calls with the same Options. Every
// floating-point operation of the sequential path runs in the same order —
// panel kernels are column-wise identical to their one-vector counterparts,
// panel assembly/extraction are pure copies, and each group's history
// engine computes a member's sums from that member's slab alone, in an order
// no worker count changes. A run with several groups fires each group's
// engine serially inside its group task; a single-group run fans the
// firings out over Options.Workers.

// batchPanelWidth is the default scenario-panel width, matching the dense
// kernels' luPanelWidth: wide enough to amortize factor index streams, narrow
// enough that a panel of the working set stays cache-resident.
const batchPanelWidth = 32

// Scenario is one member of a batch: its input signals and optional initial
// state. The system, grid, span, and solver options are shared by the whole
// batch — that sharing is what makes the single-factorization fast path
// sound.
type Scenario struct {
	// U holds the scenario's input signals, one per system input channel.
	U []waveform.Signal
	// X0 is the scenario's optional initial state (same restrictions as
	// Options.X0).
	X0 []float64
	// Delta, when non-nil with at least one update, perturbs the shared
	// pencil for this scenario by a low-rank stamp delta (a Monte-Carlo or
	// corner variation of component values; see PencilDelta and
	// circuit.StampDelta). Any scenario carrying a delta routes the whole
	// batch through the parameter-varying engine: delta scenarios are served
	// by the SMW update tier against the shared factorization, or by a
	// per-scenario refactorization past the crossover rank
	// (BatchOptions.UpdateRankLimit). Such batches checkpoint and resume
	// like any other.
	Delta *PencilDelta
}

// BatchOptions configures SolveBatch. The embedded Options apply to every
// scenario; attach Options.FactorCache to share the pencil factorization with
// other runs (and surface hit/miss counts in the report).
type BatchOptions struct {
	Options
	// PanelWidth is the number of scenarios solved together as one multi-RHS
	// panel (0 → 32). The scenario-group partition depends only on this and
	// on len(scenarios), so any value is deterministic; widths beyond ~64
	// trade cache residency for little extra index amortization.
	PanelWidth int
	// OnColumn, when non-nil, is invoked once per column, in column order,
	// after every scenario group has committed column col, with the
	// interval-midpoint time and each scenario's column including its X0
	// offset: cols[s] is bitwise-identical to column col of scenario s's
	// final Solution. When several scenario groups fan out over the worker
	// pool, the call for column col may run while the groups of column col+1
	// solve; it always runs on the SolveBatchCtx goroutine, never
	// concurrently with itself, and column col+2 does not start before it
	// returns. The backing buffers are owned by the solver and reused (two
	// sets, alternating by column); consumers must copy (or encode) them
	// before returning. A slow consumer throttles the batch — the intended
	// backpressure when columns stream to a client. A context cancelled
	// inside the call for column col stops the run at column col+1, which
	// is not committed. The embedded Options.OnColumn is ignored here: a
	// per-scenario hook would fire from concurrent group tasks.
	OnColumn func(col int, t float64, cols [][]float64)
	// CheckpointEvery, with OnCheckpoint set, emits a CheckpointDelta after
	// every CheckpointEvery-th committed column (measured on the absolute
	// column index, so resumed runs keep the original boundaries). Zero
	// emits no interval deltas; abort deltas (below) still fire.
	CheckpointEvery int
	// OnCheckpoint receives checkpoint deltas: at the interval boundaries
	// above, and — regardless of CheckpointEvery — once with the committed
	// tail whenever the solve aborts after committing columns (cancellation,
	// solver fault), so interrupted work is never lost. Deltas own their
	// buffers; apply them to a Checkpoint with ApplyCheckpoint. The hook
	// runs on the SolveBatchCtx goroutine after the column barrier.
	OnCheckpoint func(*CheckpointDelta)
	// ResumeFrom, when non-nil, resumes the solve from a checkpoint: the
	// committed prefix is adopted, history state is replayed bit-exactly,
	// and the column loop (and OnColumn) starts at ResumeFrom.Columns. The
	// checkpoint's shape header must match the solve (ErrCheckpointMismatch
	// otherwise); Workers and PanelWidth are free to differ — neither
	// changes column bits.
	ResumeFrom *Checkpoint
	// UpdateRankLimit steers the SMW-vs-refactor crossover for scenarios
	// carrying a pencil Delta: 0 resolves the break-even rank once per run
	// from counts of the shared pencil and its factors (n, m, nonzeros and
	// the factorization's multiply-adds; see parambatch.go), so the same
	// sweep takes the same paths on every run and machine; > 0 forces the
	// SMW update path for pencil-update ranks ≤ the limit (refactorization
	// above); < 0 disables the update path entirely (every delta scenario
	// refactors — the path that is bitwise-identical to
	// Solve(ApplyDelta(sys, delta), …)). Waveforms agree to ≤1e-12 either
	// way.
	UpdateRankLimit int
	// DiscardSolutions skips the final Solution assembly and returns a nil
	// slice: Monte-Carlo envelope runs consume columns through OnColumn and
	// would otherwise hold K full n×m solution matrices. With
	// DiscardSolutions set on a parameter-varying batch of a system without
	// fractional engine terms, the engine also shrinks each scenario's
	// column slab to one column (the recurrence lags live in the group's
	// panels), bounding memory at O(K·n) instead of O(K·n·m) — unless the
	// run sets OnCheckpoint or ResumeFrom, whose deltas carry whole slabs.
	DiscardSolutions bool
}

// scenState is the per-scenario solve state: exactly what one sequential
// Solve call keeps outside its group's panels, owned by the scenario's group
// step during the column loop.
type scenState struct {
	s     int       // scenario index, for diagnostics
	sys   *System   // matrices the rhs reads: the run's system, or an ApplyDelta materialization
	ups   []RankOne // SMW path: term-level updates for the rank-1 rhs corrections
	smw   *smwFactor
	pf    *pencilFactor // refactored scenario: private factorization (nil → shared)
	uc    *mat.Dense
	x0    []float64
	shift []float64
	xbuf  []float64 // column slab: column j at slot j (slot 0 in a ring run)
	ring  bool
	// Column post-solve pass (finish): the fault seam and, when the run has
	// a column hook, the hook buffers of even and odd columns (the same
	// slice when the hook never overlaps the next column's solve).
	corrupt func(col int, x []float64)
	hook    [2][]float64
}

// x returns the slab column holding column j.
func (st *scenState) x(j int) []float64 {
	n := len(st.shift)
	if st.ring {
		j = 0
	}
	return st.xbuf[j*n : (j+1)*n : (j+1)*n]
}

// finish is the post-solve pass over the final column j of the scenario,
// x = st.x(j), run by its group step: Fault.CorruptColumn, the hook values
// x + x0 (same operands and order as the Solution assembly, so every
// streamed column matches its Solution entry bit for bit) and the
// non-finite screen.
func (st *scenState) finish(j int, tj float64, x []float64) error {
	if st.corrupt != nil {
		st.corrupt(j, x)
	}
	if out := st.hook[j&1]; out != nil {
		for i, x0 := range st.x0 {
			out[i] = x[i] + x0
		}
	}
	if i := firstNonFinite(x); i >= 0 {
		d := diag(ErrNonFinite, j, tj)
		d.Cause = fmt.Errorf("scenario %d: state %d is %g (poisoned input sample or overflow?)", st.s, i, x[i])
		return d
	}
	return nil
}

// columnStep advances one scenario group through column j: it solves and
// commits each member's column into its slab and counts its linear solves per
// tier. On failure it returns the failing scenario's index and diagnostic.
// group is the panel step that builds the group's right-hand sides and owns
// its history state.
type columnStep interface {
	column(j int, tj float64, tiers *[numTiers]int) (int, error)
	group() *panelStep
}

// columnRun is one solve: the column grid, the run-wide options, the
// scenario states and the group steps that advance them. run is the column
// driver.
type columnRun struct {
	ctx    context.Context
	opt    *BatchOptions
	rep    *SolveReport
	sys    *System
	bas    basis.Basis
	n, m   int
	T, h   float64      // span; uniform step (1 on the adaptive grid: order 1 steps w_j = h_j·s_j, scaled by 1/h_j in rhs)
	times  []float64    // adaptive grid: interval midpoints
	coeffs [][]float64  // uniform grid: Toeplitz coefficients of Dᵅᵏ per term
	dmats  []*mat.Dense // adaptive grid: D̃ᵅᵏ per term
	bcoef  []float64    // uniform grid: Dᵝ coefficients of the input order
	bmat   *mat.Dense   // adaptive grid: D̃ᵝ of the input order
	useFFT bool         // resolved Options.HistoryMode: Toeplitz engine terms run on the FFT tier
	serial bool         // several groups run concurrently: each runs on one goroutine
	ring   bool         // envelope run: each slab holds only the newest column
	states []*scenState
	steps  []columnStep

	// crossover is the resolved SMW crossover rank of a parameter batch (0
	// otherwise), carried in the checkpoint header.
	crossover int
}

// single adapts a one-scenario solver's options to the driver, forwarding
// the per-column hook.
func single(opt Options) *BatchOptions {
	bo := &BatchOptions{Options: opt}
	if f := opt.OnColumn; f != nil {
		bo.OnColumn = func(j int, t float64, cols [][]float64) { f(j, t, cols[0]) }
	}
	return bo
}

// newUniformRun validates sys and builds the m-interval BPF grid over [0, T)
// shared by Solve, SolveNonlinear and SolveBatch.
func newUniformRun(ctx context.Context, sys *System, m int, T float64, opt *BatchOptions, rep *SolveReport) (*columnRun, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	bpf, err := basis.NewBPF(m, T)
	if err != nil {
		return nil, err
	}
	r := &columnRun{ctx: ctx, opt: opt, rep: rep, sys: sys, bas: bpf, n: sys.N(), m: m, T: T, h: bpf.Step(),
		coeffs: make([][]float64, len(sys.Terms))}
	if r.useFFT, err = opt.historyFFTEnabled(m); err != nil {
		return nil, err
	}
	for k, t := range sys.Terms {
		r.coeffs[k] = bpf.DiffCoeffs(t.Order)
	}
	if !isExactZero(sys.BOrder) {
		r.bcoef = bpf.DiffCoeffs(sys.BOrder)
	}
	return r, nil
}

// solveWorkers is the worker count of each group's supernodal solves and
// FFT history firings: 1 when several groups run concurrently,
// Options.Workers otherwise.
func (r *columnRun) solveWorkers() int {
	if r.serial {
		return 1
	}
	return r.opt.Workers
}

// lead is the per-term scalar of the uniform leading pencil M = Σ_k c₀⁽ᵏ⁾·E_k.
func (r *columnRun) lead(k int) float64 { return r.coeffs[k][0] }

// time is the midpoint of column j's interval.
func (r *columnRun) time(j int) float64 {
	if r.times != nil {
		return r.times[j]
	}
	return (float64(j) + 0.5) * r.h
}

// inputs expands u on the run's grid and applies the input order: the p×m
// input coefficient matrix U of eq. (11).
func (r *columnRun) inputs(u []waveform.Signal) (*mat.Dense, error) {
	uc, err := expandInputs(r.sys, u, r.bas)
	switch {
	case err != nil:
		return nil, err
	case r.bcoef != nil:
		uc = applyInputOrder(uc, r.bcoef)
	case r.bmat != nil:
		uc = mat.Mul(uc, r.bmat)
	}
	return uc, nil
}

// prepareScenario builds scenario s's state against sys (the run's system or
// its ApplyDelta materialization): initial state and column slab. uc is the
// scenario's input coefficient matrix, possibly shared read-only with other
// scenarios.
func (r *columnRun) prepareScenario(sys *System, s int, x0 []float64, uc *mat.Dense) (*scenState, error) {
	x0, shift, err := prepareInitialState(sys, x0)
	if err != nil {
		return nil, err
	}
	n, slab := r.n, r.m
	if r.ring {
		slab = 1
	}
	st := &scenState{s: s, sys: sys, uc: uc, x0: x0, shift: shift, ring: r.ring, xbuf: make([]float64, n*slab)}
	if f := r.opt.Fault; f != nil {
		st.corrupt = f.CorruptColumn
	}
	return st, nil
}

// prepareScenarios builds every scenario's state through prep, fanned out
// over the worker pool. Inputs are expanded once per distinct signal slice
// (identified by backing-array identity: Monte-Carlo scenarios built from one
// []Signal share it); expansion is deterministic, so sharing changes no bits.
func (r *columnRun) prepareScenarios(scenarios []Scenario, prep func(s int, uc *mat.Dense) (*scenState, error)) error {
	type ucSlot struct {
		uc  *mat.Dense
		err error
	}
	K := len(scenarios)
	slots := map[*waveform.Signal]*ucSlot{}
	slotOf := make([]*ucSlot, K)
	var expand []func()
	for s := range scenarios {
		var key *waveform.Signal
		if u := scenarios[s].U; len(u) > 0 {
			key = &u[0]
		}
		sl := slots[key]
		if sl == nil {
			sl = &ucSlot{}
			slots[key] = sl
			expand = append(expand, func() { sl.uc, sl.err = r.inputs(scenarios[s].U) })
		}
		slotOf[s] = sl
	}
	r.states = make([]*scenState, K)
	errs := make([]error, K)
	run := func(tasks []func()) error {
		if err := r.runTasks(tasks); err != nil {
			return &Diagnostic{Kind: ErrInternal, Column: -1, Time: 0, Cause: err}
		}
		return nil
	}
	if err := run(expand); err != nil {
		return err
	}
	tasks := make([]func(), K)
	for s := range tasks {
		tasks[s] = func() {
			if errs[s] = slotOf[s].err; errs[s] == nil {
				r.states[s], errs[s] = prep(s, slotOf[s].uc)
			}
		}
	}
	if err := run(tasks); err != nil {
		return err
	}
	for s, err := range errs {
		if err != nil && K > 1 {
			err = fmt.Errorf("core: batch scenario %d: %w", s, err)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// runTasks runs the tasks of one batch phase — scenario preparation, the
// group steps of a column, replay, solution assembly. One task, or any
// number under a resolved Options.Workers of 1, runs in order on the calling
// goroutine (so a single group's history engine and supernodal solves may
// themselves use the pool);
// several tasks otherwise fan out over the pool.
func (r *columnRun) runTasks(tasks []func()) error {
	return newTaskList(tasks, r.fansOut(len(tasks))).do()
}

// fansOut reports whether runTasks hands k tasks to the pool.
func (r *columnRun) fansOut(k int) bool {
	w := r.opt.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return k > 1 && w != 1
}

// overlapTasks runs the task list on the pool while during runs on the
// calling goroutine, and returns once both are done — also when during
// panics, so no task outlives the call.
func overlapTasks(tasks *taskList, during func()) (err error) {
	tasks.start()
	defer func() {
		if werr := tasks.wait(); err == nil {
			err = werr
		}
	}()
	during()
	return nil
}

// firstNonFinite returns the index of the first NaN/±Inf entry of x, or −1.
// One comparison per entry: |v| ≤ MaxFloat64 fails exactly for NaN and ±Inf.
func firstNonFinite(x []float64) int {
	for i, v := range x {
		if !(math.Abs(v) <= math.MaxFloat64) {
			return i
		}
	}
	return -1
}

// run is the column driver: it resumes from opt.ResumeFrom when set, runs
// columns j0..m−1 through the group steps under the per-column protocol
// described at the top of this file, and assembles the Solutions.
func (r *columnRun) run() ([]*Solution, error) {
	opt, rep, n, K := r.opt, r.rep, r.n, len(r.states)
	engine := ""
	if e := r.steps[0].group().eng; e != nil {
		engine = e.modeName()
		rep.HistoryEngine = engine
	}
	j0 := 0
	if cp := opt.ResumeFrom; cp != nil {
		if err := cp.validateFor(n, r.m, K, r.T, engine, r.crossover); err != nil {
			return nil, err
		}
		j0 = cp.Columns
		if err := r.resume(cp); err != nil {
			d := diag(engineErrKind(err), j0, r.time(j0))
			d.Cause = fmt.Errorf("batch resume replay: %w", err)
			return nil, d
		}
	}

	// emitDelta hands columns [lastCp, hi) to OnCheckpoint as fresh copies,
	// at interval boundaries and on every abort after a new commit.
	lastCp := j0
	emitDelta := func(hi int) {
		if opt.OnCheckpoint == nil || hi <= lastCp {
			return
		}
		d := &CheckpointDelta{N: n, M: r.m, K: K, T: r.T, Engine: engine, UpdateCrossoverRank: r.crossover,
			From: lastCp, To: hi, Slabs: make([][]float64, K)}
		for s, st := range r.states {
			d.Slabs[s] = append([]float64(nil), st.xbuf[lastCp*n:hi*n]...)
		}
		lastCp = hi
		opt.OnCheckpoint(d)
	}

	// The group tasks are built once; they read the column from j and tj.
	var j int
	var tj float64
	errs := make([]error, K)
	tiers := make([][numTiers]int, len(r.steps))
	tasks := make([]func(), len(r.steps))
	for g, step := range r.steps {
		tasks[g] = func() {
			if s, err := step.column(j, tj, &tiers[g]); err != nil {
				errs[s] = err
			}
		}
	}
	// Column j's post work — the OnColumn hook and an interval checkpoint
	// delta — reads only committed columns and the hook buffers of column j,
	// so when the groups fan out it runs on this goroutine while column
	// j+1's groups solve and write the other set of hook buffers (even and
	// odd columns alternate; a run that never overlaps has one set).
	overlap := r.fansOut(len(tasks))
	groups := newTaskList(tasks, overlap)
	var hooks [2][][]float64
	if opt.OnColumn != nil {
		sets := 1
		if overlap {
			sets = 2
		}
		buf := make([]float64, sets*K*n)
		hooks = [2][][]float64{make([][]float64, K), make([][]float64, K)}
		for b := range hooks {
			set := buf[b%sets*K*n:]
			for s, st := range r.states {
				st.hook[b] = set[s*n : (s+1)*n : (s+1)*n]
				hooks[b][s] = st.hook[b]
			}
		}
	}
	post := func(c int) {
		if opt.OnColumn != nil {
			opt.OnColumn(c, r.time(c), hooks[c&1])
		}
		if opt.CheckpointEvery > 0 && (c+1)%opt.CheckpointEvery == 0 && c+1 < r.m {
			emitDelta(c + 1)
		}
	}
	due := -1 // overlapped runs: the committed column whose post work is due
	flush := func() {
		if c := due; c >= 0 {
			due = -1
			post(c)
		}
	}
	cancelled := func(err error) error {
		d := diag(ErrCancelled, j, tj)
		d.Cause = err
		return d
	}
	column := func() error {
		if err := r.ctx.Err(); err != nil {
			flush()
			return cancelled(err)
		}
		if opt.Fault != nil && opt.Fault.ColumnDelay != nil {
			opt.Fault.ColumnDelay(j)
		}
		var err error
		if overlap {
			// A cancel raised by column j−1's post work abandons column j
			// uncommitted, exactly as when that work ran before it.
			var hookErr error
			live := r.ctx.Err() == nil
			err = overlapTasks(groups, func() {
				flush()
				if live {
					hookErr = r.ctx.Err()
				}
			})
			if hookErr != nil {
				return cancelled(hookErr)
			}
		} else {
			err = groups.do()
		}
		if err != nil {
			d := diag(ErrInternal, j, tj)
			d.Cause = err
			return d
		}
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	for j = j0; j < r.m; j++ {
		tj = r.time(j)
		if err := column(); err != nil {
			// Column j may be partially committed across groups; the delta
			// covers only the fully-committed prefix [lastCp, j).
			emitDelta(j)
			return nil, err
		}
		rep.Columns += K
		for g := range tiers {
			for t, c := range tiers[g] {
				rep.TierSolves[t] += c
			}
			tiers[g] = [numTiers]int{}
		}
		if overlap {
			due = j
		} else {
			post(j)
		}
	}
	flush()
	// The history engines (an n×m FFT accumulator per fractional term and
	// member) are dead once the last column is committed: release them
	// before the solutions are allocated, so a solve never holds both at
	// once.
	for _, step := range r.steps {
		step.group().eng = nil
	}
	if opt.DiscardSolutions {
		return nil, nil
	}

	// Solution assembly (pure data movement, one task per scenario): the slab
	// is m×n and the Solution matrix n×m, so the transpose is tiled to keep
	// both sides cache-resident — per element it is the one addition x + x0.
	sols := make([]*Solution, K)
	fin := make([]func(), K)
	for s, st := range r.states {
		fin[s] = func() {
			const tile = 64
			x := mat.NewDense(n, r.m)
			xd := x.Data()
			for i0 := 0; i0 < n; i0 += tile {
				i1 := min(i0+tile, n)
				for c0 := 0; c0 < r.m; c0 += tile {
					c1 := min(c0+tile, r.m)
					for i := i0; i < i1; i++ {
						xr, x0i := xd[i*r.m:(i+1)*r.m], st.x0[i]
						for c := c0; c < c1; c++ {
							xr[c] = st.xbuf[c*n+i] + x0i
						}
					}
				}
			}
			sols[s] = &Solution{sys: r.sys, bas: r.bas, x: x}
		}
	}
	if err := r.runTasks(fin); err != nil {
		return nil, &Diagnostic{Kind: ErrInternal, Column: r.m - 1, Time: r.T, Cause: err}
	}
	return sols, nil
}

// SolveBatch simulates K scenarios over [0, T) with m uniform BPF intervals
// through one shared pencil factorization and blocked multi-RHS panel solves,
// returning one Solution per scenario in input order. Results are
// bitwise-identical to K sequential Solve calls with the same Options; the
// batch fails as a whole with the diagnostic of the lowest-indexed failing
// scenario.
func SolveBatch(sys *System, scenarios []Scenario, m int, T float64, opt BatchOptions) ([]*Solution, error) {
	return SolveBatchCtx(context.Background(), sys, scenarios, m, T, opt)
}

// SolveBatchCtx is SolveBatch with cancellation, checked once per column (and
// at the FFT segment firings of the groups' history engines).
func SolveBatchCtx(ctx context.Context, sys *System, scenarios []Scenario, m int, T float64, opt BatchOptions) (_ []*Solution, err error) {
	rep := opt.report()
	defer func() { rep.Err = err }()
	if len(scenarios) == 0 {
		return nil, fmt.Errorf("core: SolveBatch needs at least one scenario")
	}
	return solveUniform(ctx, sys, scenarios, m, T, &opt, rep)
}

// solveUniform is the uniform-grid linear solve behind Solve and SolveBatch:
// one shared factorization of the leading pencil, scenario groups of
// PanelWidth, and the column driver.
func solveUniform(ctx context.Context, sys *System, scenarios []Scenario, m int, T float64, opt *BatchOptions, rep *SolveReport) ([]*Solution, error) {
	r, err := newUniformRun(ctx, sys, m, T, opt, rep)
	if err != nil {
		return nil, err
	}
	msys, err := assembleLeading(sys, r.lead)
	if err != nil {
		return nil, err
	}
	shared, err := factorPencilCached(msys, r.h, sys.MaxOrder(), -1, 0, &opt.Options, rep)
	if err != nil {
		return nil, err
	}
	K := len(scenarios)
	width := opt.PanelWidth
	if width <= 0 {
		width = batchPanelWidth
	}
	width = min(width, K)
	// Scenarios that perturb the pencil itself route through the
	// parameter-varying engine (SMW updates + crossover refactorization).
	for s := range scenarios {
		if scenarios[s].Delta.Rank() > 0 {
			return r.solveParamBatch(scenarios, shared, width)
		}
	}
	groups := scenarioGroups(K, width, nil)
	r.serial = len(groups) > 1
	if err := r.prepareScenarios(scenarios, func(s int, uc *mat.Dense) (*scenState, error) {
		return r.prepareScenario(sys, s, scenarios[s].X0, uc)
	}); err != nil {
		return nil, err
	}
	r.addGroupSteps(shared, groups)
	return r.run()
}

// scenarioGroups partitions K scenarios into the contiguous chunks of width,
// a pure function of K and width; a refactored scenario (private[s]; nil
// means none) leaves its chunk for a one-wide group of its own. The groups
// view one index buffer.
func scenarioGroups(K, width int, private []bool) [][]int {
	idx := make([]int, 0, K)
	var groups [][]int
	for lo := 0; lo < K; lo += width {
		start := len(idx)
		for s := lo; s < min(lo+width, K); s++ {
			if private == nil || !private[s] {
				idx = append(idx, s)
			}
		}
		if len(idx) > start {
			groups = append(groups, idx[start:])
		}
		for s := lo; s < min(lo+width, K); s++ {
			if private != nil && private[s] {
				idx = append(idx, s)
				groups = append(groups, idx[len(idx)-1:])
			}
		}
	}
	return groups
}

// addGroupSteps builds one panelStep per scenario group: a refactored
// scenario's over its private factorization, the others' over a view of
// shared. Each step carries its group's history engine.
func (r *columnRun) addGroupSteps(shared *pencilFactor, groups [][]int) {
	workers := r.solveWorkers()
	all, off := make([]*scenState, len(r.states)), 0
	for _, idx := range groups {
		members := all[off : off+len(idx) : off+len(idx)]
		off += len(idx)
		for t, s := range idx {
			members[t] = r.states[s]
		}
		pf := members[0].pf
		if pf == nil {
			pf = shared.instantiate(workers)
		}
		r.steps = append(r.steps, r.newPanelStep(members, pf))
	}
}

// solveOne runs a one-scenario solver on the prepared run: it builds the
// scenario state for the input coefficients uc (nil when the step samples
// its inputs itself) and Options.X0, and drives step(g) through the
// columns, g being the scenario's one-wide right-hand-side builder.
func (r *columnRun) solveOne(uc *mat.Dense, step func(g *panelStep) columnStep) (*Solution, error) {
	st, err := r.prepareScenario(r.sys, 0, r.opt.X0, uc)
	if err != nil {
		return nil, err
	}
	r.states = []*scenState{st}
	r.steps = []columnStep{step(r.newPanelStep(r.states, nil))}
	sols, err := r.run()
	if err != nil {
		return nil, err
	}
	return sols[0], nil
}
