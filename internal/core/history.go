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
// for the fractional/high-order terms whose Toeplitz (or adaptive-grid)
// coefficients admit no short recurrence — the O(nᵝm + nm²) part of the
// paper's §IV cost split. It has two tiers:
//
//   - the exact tier folds the past columns into w_j one by one, in
//     ascending i, on the solving goroutine: the reference summation,
//     O(n·j) per column;
//   - the FFT tier (historyfft.go) serves Toeplitz terms by segmented fast
//     convolution, O(n·m log² m) in total.
//
// Determinism: the exact tier has one accumulation order, so its results
// depend on nothing but the inputs; the FFT tier's firings are
// bitwise-identical under any Options.Workers setting (see historyfft.go).
// historyPool is the process-wide worker pool shared by the FFT tier's
// firings, batch preparation and the driver's group tasks across all solves. Goroutines are
// started once, sized to GOMAXPROCS, and parked on a channel between bursts.
var historyPool struct {
	once sync.Once
	jobs chan func()
}

// runRecovered runs f, converting a panic into an error instead of letting
// it unwind (and, on a pool goroutine, crash) the process.
func runRecovered(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("history worker panic: %v", r)
		}
	}()
	f()
	return nil
}

// runInOrder runs the tasks one after another on the calling goroutine,
// with historyPoolDo's error rule: a panic becomes an error, the first one
// wins, and the remaining tasks still run.
func runInOrder(tasks []func()) error {
	var firstErr error
	for _, t := range tasks {
		if err := runRecovered(t); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// historyPoolDo runs the tasks to completion, preferring pool goroutines and
// falling back to the calling goroutine when the pool is saturated. A panic
// inside any task is recovered and reported as the returned error (first one
// wins) rather than crashing the process; the remaining tasks still run, so
// the accumulators stay consistent for whoever inspects them post-mortem.
func historyPoolDo(tasks []func()) error { return historyPoolGo(tasks)() }

// historyPoolGo hands the tasks to the pool and returns a wait function that
// blocks until every task has finished and returns historyPoolDo's error. A
// task the saturated pool cannot take runs on the calling goroutine before
// historyPoolGo returns.
func historyPoolGo(tasks []func()) (wait func() error) {
	historyPool.once.Do(func() {
		n := runtime.GOMAXPROCS(0)
		historyPool.jobs = make(chan func(), n)
		for i := 0; i < n; i++ {
			go func() {
				for f := range historyPool.jobs {
					f()
				}
			}()
		}
	})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	wg.Add(len(tasks))
	for _, t := range tasks {
		t := t
		run := func() {
			defer wg.Done()
			if err := runRecovered(t); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}
		select {
		case historyPool.jobs <- run:
		default:
			run()
		}
	}
	return func() error {
		wg.Wait()
		return firstErr
	}
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
	key     int // registration key (System term index); names the term in shared caches
	toe     []float64
	genCols *mat.Dense
	fft     *fftHist  // segmented fast-convolution state (FFT tier only)
	w       []float64 // scratch returned by history()
}

// kernelCache shares FFT lag-kernel spectra across the per-scenario history
// engines of a batch: the K scenarios of SolveBatch have identical Toeplitz
// coefficients per term (same h, α, m), so the spectrum for (term, segment
// length) is computed once and reused instead of K times. Spectra are
// deterministic functions of the coefficients, so whether an engine computes
// or fetches one cannot change any bit of its results. Safe for concurrent
// use; stored slices are immutable after insertion.
type kernelCache struct {
	mu sync.Mutex
	m  map[kernelKey][]complex128
}

type kernelKey struct{ term, L int }

func newKernelCache() *kernelCache { return &kernelCache{m: map[kernelKey][]complex128{}} }

// get returns the cached spectrum for (term, L), or nil.
func (c *kernelCache) get(term, L int) []complex128 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[kernelKey{term, L}]
}

// put stores a freshly built spectrum. Concurrent builders of the same key
// store bitwise-identical slices, so last-write-wins is harmless.
func (c *kernelCache) put(term, L int, spec []complex128) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[kernelKey{term, L}] = spec
}

// historyEngine evaluates general (non-recurrence) history sums for a
// column-by-column solve. Columns must be consumed in order j = 0..m−1, and
// columns 0..j−1 of the slab xs — column i at xs[i·n : (i+1)·n] — must be
// solved before history(·, j, xs) is called.
type historyEngine struct {
	n, m    int
	workers int  // FFT-tier pair fan-out
	useFFT  bool // route new Toeplitz terms to the fast-convolution tier
	fftBase int  // FFT-tier base segment length (historyFFTBase; tests shrink it)
	terms   map[int]*historyTerm
	// order lists term keys in registration order. All term iteration goes
	// through it — never through the map — so checkpoint replay is
	// independent of map iteration order (maporder lint rule).
	order   []int
	kernels *kernelCache       // shared FFT kernel spectra (batch runs); may be nil
	ctx     context.Context    // checked at FFT segment firings; may be nil
	fault   *faultinject.Hooks // optional injection hooks; may be nil
}

// setGuards attaches the cancellation context and fault-injection hooks the
// engine consults at FFT segment firings and inside their worker tasks.
func (e *historyEngine) setGuards(ctx context.Context, opt *Options) {
	e.ctx = ctx
	e.fault = opt.Fault
}

// newHistoryEngine creates an engine for an n-state, m-column solve,
// resolving Options.Workers (≤ 0 means runtime.GOMAXPROCS(0)) and
// Options.HistoryMode (which routes Toeplitz terms to the FFT
// fast-convolution tier). The only error is an unrecognized HistoryMode.
func newHistoryEngine(n, m int, opt *Options) (*historyEngine, error) {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	useFFT, err := opt.historyFFTEnabled(m)
	if err != nil {
		return nil, err
	}
	return &historyEngine{
		n: n, m: m,
		workers: workers,
		useFFT:  useFFT,
		fftBase: historyFFTBase,
		terms:   map[int]*historyTerm{},
	}, nil
}

// newTerm allocates a term's scratch, plus the fast-convolution state when
// the term runs on the FFT tier.
func (e *historyEngine) newTerm(useFFT bool) *historyTerm {
	t := &historyTerm{w: make([]float64, e.n)}
	if useFFT {
		t.fft = &fftHist{
			acc:   mat.NewDense(e.n, e.m),
			ker:   map[int][]complex128{},
			fired: -1,
		}
	}
	return t
}

// addToeplitz registers term k with uniform-grid Toeplitz coefficients.
func (e *historyEngine) addToeplitz(k int, c []float64) {
	t := e.newTerm(e.useFFT)
	t.toe = c
	e.setTerm(k, t)
}

// addGeneral registers term k with an adaptive-grid operational matrix.
// General terms always run on the exact engine: the adaptive D̃ᵅ has no
// Toeplitz structure, so there is no convolution to accelerate.
func (e *historyEngine) addGeneral(k int, d *mat.Dense) {
	t := e.newTerm(false)
	t.genCols = d.T()
	e.setTerm(k, t)
}

// setTerm stores term k, keeping the deterministic iteration order current.
func (e *historyEngine) setTerm(k int, t *historyTerm) {
	t.key = k
	if e.terms[k] == nil {
		e.order = append(e.order, k)
	}
	e.terms[k] = t
}

// orderedTerms returns the registered terms in registration order.
func (e *historyEngine) orderedTerms() []*historyTerm {
	out := make([]*historyTerm, len(e.order))
	for i, k := range e.order {
		out[i] = e.terms[k]
	}
	return out
}

// active reports whether term k uses the engine.
func (e *historyEngine) active(k int) bool { return e.terms[k] != nil }

// modeName reports which evaluation strategy the engine's registered terms
// use, for SolveReport.HistoryEngine: "fft" when any term runs on the
// fast-convolution tier, else "exact".
func (e *historyEngine) modeName() string {
	for _, t := range e.orderedTerms() {
		if t.fft != nil {
			return "fft"
		}
	}
	return "exact"
}

// history returns w_j = Σ_{i<j} c(i,j)·x_i for term k. The returned slice
// is owned by the engine and valid until the next history call for k. An
// error means the engine's context expired at an FFT segment firing or a
// firing's worker task panicked (see engineErrKind); the exact tier cannot
// fail.
func (e *historyEngine) history(k, j int, xs []float64) ([]float64, error) {
	t := e.terms[k]
	if t.fft != nil {
		return e.historyFFT(t, j, xs)
	}
	w := t.w
	for i := range w {
		w[i] = 0
	}
	t.fold(j, 0, j, xs, w)
	return w, nil
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
