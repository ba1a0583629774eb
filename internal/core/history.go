package core

//lint:hot

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"opmsim/internal/faultinject"
	"opmsim/internal/mat"
	"opmsim/internal/vecops"
)

// The history engine evaluates the per-term history sums of eq. (28),
//
//	w_j⁽ᵏ⁾ = Σ_{i<j} c⁽ᵏ⁾(i,j)·x_i,
//
// for the terms whose coefficients admit no short recurrence (onEngine:
// fractional orders, and integer orders p ≥ 2 on the adaptive grid) — the
// O(nᵝm + nm²) part of the paper's §IV cost split. One engine serves a
// scenario group: each of its terms holds the coefficients once, and each
// history call fills the term's n×w panel, one column per member. It has
// two tiers:
//
//   - the exact tier folds the past columns into w_j one by one, in
//     ascending i, on the solving goroutine: the reference summation,
//     O(n·j) per column and member;
//   - the FFT tier (historyfft.go) serves Toeplitz terms by segmented fast
//     convolution, O(n·m log² m) in total per member.
//
// Determinism: the exact tier has one accumulation order, so its results
// depend on nothing but the inputs; the FFT tier's firings are
// bitwise-identical under any Options.Workers setting (see historyfft.go).
// A member's sums read only its own slab, so they do not depend on the
// group it rides in.

// taskPool is the process-wide worker pool behind every fan-out of the
// solvers: scenario preparation, the driver's group tasks, the FFT tier's
// firings and solution assembly, across all solves. Goroutines are started
// once, sized to GOMAXPROCS, and parked on a channel between bursts.
var taskPool struct {
	once sync.Once
	jobs chan func()
}

// taskList runs tasks to completion over the pool or, when it does not fan
// out, in order on the calling goroutine (as it runs a task the saturated
// pool cannot take). A task's panic becomes the list's error, the first one
// winning, instead of crashing the process; the remaining tasks still run,
// so the accumulators stay consistent for a post-mortem. Its wrappers and
// wait state are built once, so that the driver's group tasks and the FFT
// firings, run every column, allocate nothing. Runs must not overlap.
type taskList struct {
	fan  bool
	runs []func() // the tasks, wrapped to recover a panic and signal wg
	wg   sync.WaitGroup
	mu   sync.Mutex
	err  error
}

func newTaskList(tasks []func(), fan bool) *taskList {
	l := &taskList{fan: fan, runs: make([]func(), len(tasks))}
	for i, t := range tasks {
		l.runs[i] = func() {
			defer func() {
				if p := recover(); p != nil {
					l.mu.Lock()
					if l.err == nil {
						l.err = fmt.Errorf("worker panic: %v", p)
					}
					l.mu.Unlock()
				}
				l.wg.Done()
			}()
			t()
		}
	}
	return l
}

// start begins a run: it hands the tasks to the pool, or runs them in order
// when the list does not fan out.
func (l *taskList) start() {
	if l.fan {
		taskPool.once.Do(func() {
			n := runtime.GOMAXPROCS(0)
			taskPool.jobs = make(chan func(), n)
			for i := 0; i < n; i++ {
				go func() {
					for f := range taskPool.jobs {
						f()
					}
				}()
			}
		})
	}
	l.err = nil
	l.wg.Add(len(l.runs))
	for _, run := range l.runs {
		if l.fan {
			select {
			case taskPool.jobs <- run:
				continue
			default:
			}
		}
		run()
	}
}

// wait blocks until every task of the run has finished and returns its
// first error.
func (l *taskList) wait() error {
	l.wg.Wait()
	return l.err
}

func (l *taskList) do() error {
	l.start()
	return l.wait()
}

// engineErrKind maps a history-engine error to its taxonomy sentinel:
// context expiry to ErrCancelled, recovered worker panics (and anything
// else) to ErrInternal.
func engineErrKind(err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return ErrCancelled
	}
	return ErrInternal
}

// historyTerm is one term's coefficient source plus its accumulators.
// Exactly one of toe/genCols is set: toe holds the uniform-grid Toeplitz
// coefficients (c(i,j) = toe[j−i]), genCols the transposed adaptive-grid
// operational matrix (c(i,j) = genCols.At(j,i) — stored column-major so the
// fold over past i indexes one contiguous slice, skipping exact zeros).
// Toeplitz terms of an FFT-mode engine carry the fast-convolution state in
// fft.
type historyTerm struct {
	toe     []float64
	genCols *mat.Dense
	fft     *fftHist  // segmented fast-convolution state (FFT tier only)
	w       []float64 // one member's w_j, scattered into the term panel
}

// historyEngine evaluates general (non-recurrence) history sums for a
// scenario group's column-by-column solve. Columns must be consumed in order
// j = 0..m−1, and columns 0..j−1 of every member slab must be solved before
// history(·, j, ·) is called.
type historyEngine struct {
	n, m    int
	fftBase int                // FFT-tier base segment length (historyFFTBase; tests shrink it)
	maxL    int                // longest segment that can fire: the largest power of two below m
	useFFT  bool               // Toeplitz terms run on the fast-convolution tier
	xs      [][]float64        // member slabs: member t's column i at xs[t][i·n : (i+1)·n]
	terms   []*historyTerm     // indexed by system term; nil for terms the engine does not serve
	ctx     context.Context    // checked at FFT segment firings; may be nil
	fault   *faultinject.Hooks // optional injection hooks; may be nil
	// FFT firings: the one in progress, and the task list that runs it over
	// the (member, row pair) ranges, built once.
	cur   firing
	tasks *taskList
}

// newHistoryEngine creates the engine of a group whose members keep their
// column slabs in xs, for an n-state, m-column solve. workers is the FFT
// firing fan-out (≤ 0 means runtime.GOMAXPROCS(0)); useFFT routes Toeplitz
// terms to the fast-convolution tier.
func newHistoryEngine(n, m, workers int, useFFT bool, xs [][]float64, nterms int) *historyEngine {
	e := &historyEngine{n: n, m: m, fftBase: historyFFTBase, maxL: 1, useFFT: useFFT, xs: xs,
		terms: make([]*historyTerm, nterms)}
	for 2*e.maxL < m {
		e.maxL *= 2
	}
	if useFFT {
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		e.buildTasks(workers)
	}
	return e
}

// addToeplitz registers term k with uniform-grid Toeplitz coefficients.
func (e *historyEngine) addToeplitz(k int, c []float64) {
	t := &historyTerm{toe: c, w: make([]float64, e.n)}
	if e.useFFT {
		t.fft = &fftHist{acc: make([]*mat.Dense, len(e.xs)), spec: make([]complex128, 4*e.maxL),
			ker: map[int][]complex128{}, fired: -1}
		for i := range t.fft.acc {
			t.fft.acc[i] = mat.NewDense(e.n, e.m)
		}
	}
	e.terms[k] = t
}

// addGeneral registers term k with an adaptive-grid operational matrix.
// General terms always run on the exact engine: the adaptive D̃ᵅ has no
// Toeplitz structure, so there is no convolution to accelerate.
func (e *historyEngine) addGeneral(k int, d *mat.Dense) {
	e.terms[k] = &historyTerm{genCols: d.T(), w: make([]float64, e.n)}
}

// modeName reports which evaluation strategy the engine's terms use, for
// SolveReport.HistoryEngine: "fft" when its Toeplitz terms run on the
// fast-convolution tier, else "exact".
func (e *historyEngine) modeName() string {
	if e.useFFT {
		return "fft"
	}
	return "exact"
}

// history fills dst (n×w) with w_j = Σ_{i<j} c(i,j)·x_i of term k, member t's
// sum in column t. An error means the engine's context expired at an FFT
// segment firing or a firing's worker task panicked (see engineErrKind); the
// exact tier cannot fail.
func (e *historyEngine) history(k, j int, dst *mat.Dense) error {
	t := e.terms[k]
	lo := 0
	if t.fft != nil {
		if j > 0 && j%e.fftBase == 0 && t.fft.fired != j {
			t.fft.fired = j
			if err := e.fire(t, j); err != nil {
				return err
			}
		}
		lo = j - j%e.fftBase
	}
	w, dd, v := len(e.xs), dst.Data(), t.w
	for c, xs := range e.xs {
		// The FFT tier starts from the completed segments' accumulated
		// part and folds the in-segment remainder; the exact tier folds
		// every past column.
		if t.fft != nil {
			acc := t.fft.acc[c]
			for i := range v {
				v[i] = acc.Row(i)[j]
			}
		} else {
			for i := range v {
				v[i] = 0
			}
		}
		t.fold(j, lo, j, xs, v)
		for i, x := range v {
			dd[i*w+c] = x
		}
	}
	return nil
}

// fold accumulates dst += Σ_{i∈[lo,hi)} c(i,j)·x_i in ascending i order,
// x_i the slab column xs[i·n : (i+1)·n] with n = len(dst).
func (t *historyTerm) fold(j, lo, hi int, xs, dst []float64) {
	n := len(dst)
	if t.toe != nil {
		c := t.toe
		for i := lo; i < hi; i++ {
			vecops.AddMul(dst, xs[i*n:i*n+n], c[j-i])
		}
		return
	}
	// Column j of the operational matrix is row j of the transposed copy:
	// one contiguous slice instead of a strided At(i, j) per element.
	col := t.genCols.Row(j)
	for i := lo; i < hi; i++ {
		if v := col[i]; !isExactZero(v) {
			vecops.AddMul(dst, xs[i*n:i*n+n], v)
		}
	}
}
