package core

//lint:hot

import (
	"fmt"
	"math"
	"math/bits"

	"opmsim/internal/fft"
	"opmsim/internal/mat"
)

// The FFT tier of the history engine replaces the exact O(n·m²) evaluation
// of the Toeplitz history sums w_j = Σ_{i<j} c_{j−i}·x_i with Lubich-style
// segmented fast convolution, O(n·m log² m) total:
//
//   - solved columns are grouped into segments of power-of-two lengths
//     L = base·2^v. When column j (a multiple of base) is reached, exactly
//     one segment fires: the one of length L = base·2^v with v the number of
//     trailing zero bits of j/base, covering the just-completed columns
//     [j−L, j). Its contribution to the next L columns [j, j+L) is a linear
//     convolution against the lag kernel k[d] = c_d (d ≥ 1), evaluated as a
//     2L-point circular convolution per state row and accumulated into the
//     term's n×m accumulator. Over a run this fires segments of length base
//     at every odd multiple of base, 2·base at every odd multiple of 2·base,
//     and so on — each (past, future) column pair is covered by exactly one
//     segment, which is the classical zero-delay partition of the triangle
//     {i < j} into squares;
//   - the per-column remainder — past columns inside the current base
//     segment — is folded directly by the exact tier's ascending fold;
//   - a firing convolves the state rows in pairs: rows 2q and 2q+1 share one
//     complex 2L-point transform, z = s₀·row(2q) + i·s₁·row(2q+1). The lag
//     kernel is real, so the real and imaginary parts of the product are
//     the two rows' convolutions, with no pack/unpack pass. s₀ and s₁ are
//     powers of two taken from each row's largest magnitude over the
//     segment, so each row keeps its own relative accuracy however much
//     larger its pair-mate is, and undoing them is exact. An odd last row
//     rides alone in the real part;
//   - the forward transform is decimation in frequency (natural order in,
//     bit-reversed order out, first stage pruned because the upper half of
//     z is zero padding) and the inverse is decimation in time
//     (bit-reversed in, natural out), so no bit-reversal pass runs. The
//     kernel spectrum is computed once per (term, L) in that bit-reversed
//     order, prescaled by the exact factor 1/(2L), and cached;
//   - the pairs of a firing are independent, and a group's engine fires
//     each term once for all its members: one task list over the (member,
//     row pair) ranges, built once per engine, fans out over the shared
//     worker pool, each row's accumulator slice owned by exactly one task.
//     A pair never spans two members.
//
// Determinism: pairs are fixed by row index, not by the worker partition; a
// pair's scaling, transforms and accumulation run in one task in a fixed
// order; and segments fire in ascending column order, on a live run and on
// a checkpoint replay alike. FFT-mode results are therefore
// bitwise-identical across Workers settings and across resume. They are
// *not* bitwise-identical to the exact engine — circular convolution
// reorders the floating-point sums — but agree to ~1e-12 relative on the
// golden waveforms; the exact engine remains the default cross-check below
// the crossover.
const (
	// historyFFTBase is the base segment length: the tail fold is O(base)
	// per column, and no transform is shorter than 2·base (at least 8, the
	// shortest fft.Plan.Convolve takes). Engines override it in tests to
	// exercise many segment levels on small grids.
	historyFFTBase = 64
	// historyFFTCrossover is the grid size at which HistoryAuto switches
	// from the exact tier to the FFT tier. Measured with the historyfft
	// ablation (BENCH_history_fft.json, see EXPERIMENTS.md) the FFT tier is
	// already ahead at m = 256 and wins more than 10× at m = 4096; auto
	// stays on the exact tier up to 511 columns only so that small
	// default-mode runs (the m = 256 golden grids) keep their bit patterns.
	historyFFTCrossover = 512
)

// HistoryMode names the engine evaluating the general (non-recurrence)
// history sums of eq. (28); see Options.HistoryMode.
type HistoryMode string

const (
	// HistoryAuto (equivalently the zero value "") selects HistoryFFT for
	// grids with at least historyFFTCrossover columns, HistoryExact below.
	HistoryAuto HistoryMode = "auto"
	// HistoryExact is the reference summation: each column folds every
	// past column in ascending order, on the solving goroutine.
	HistoryExact HistoryMode = "exact"
	// HistoryFFT is the segmented fast-convolution engine: O(n·m log² m)
	// instead of O(n·m²), matching the exact engine to roundoff (~1e-12
	// relative) but not bit for bit.
	HistoryFFT HistoryMode = "fft"
)

// ParseHistoryMode converts a CLI flag value into a HistoryMode, accepting
// exactly auto, exact, and fft (empty means auto).
func ParseHistoryMode(s string) (HistoryMode, error) {
	switch m := HistoryMode(s); m {
	case "":
		return HistoryAuto, nil
	case HistoryAuto, HistoryExact, HistoryFFT:
		return m, nil
	}
	return "", fmt.Errorf("core: unknown history mode %q (want auto, exact, or fft)", s)
}

// historyFFTEnabled resolves HistoryMode against the grid size.
func (o *Options) historyFFTEnabled(m int) (bool, error) {
	switch o.HistoryMode {
	case "", HistoryAuto:
		return m >= historyFFTCrossover, nil
	case HistoryExact:
		return false, nil
	case HistoryFFT:
		return true, nil
	}
	return false, fmt.Errorf("core: unknown HistoryMode %q (want %q, %q, or %q)",
		o.HistoryMode, HistoryAuto, HistoryExact, HistoryFFT)
}

// fftHist is the per-term state of the segmented fast-convolution tier.
type fftHist struct {
	acc   []*mat.Dense         // per member, n×m: completed segments' contributions to future columns
	spec  []complex128         // backing store of every level's spectrum: length L at [2(L−base), 4L−2·base)
	ker   map[int][]complex128 // segment length L → bit-reversed, 1/(2L)-scaled spectrum of the 2L-point lag kernel, once built
	fired int                  // last column at which a segment fired (idempotency guard)
}

// firing is the fast-convolution level in progress: term t's completed
// segment [a, a+L) against the kernel spectrum ker, accumulated into columns
// [j, j+outLen) of every member.
type firing struct {
	t               *historyTerm
	ker             []complex128
	a, L, j, outLen int
}

// buildTasks splits the group's (member, row pair) sequence into at most
// workers contiguous ranges, one task each, with a transform buffer long
// enough for the longest segment that can fire. Pairs are fixed by row
// index, so the partition changes which goroutine runs a pair, never what
// it computes.
func (e *historyEngine) buildTasks(workers int) {
	total := len(e.xs) * ((e.n + 1) / 2)
	nt := min(workers, total)
	bufs := make([]complex128, nt*2*e.maxL)
	tasks := make([]func(), nt)
	for r := range tasks {
		lo, hi := r*total/nt, (r+1)*total/nt
		z := bufs[r*2*e.maxL : (r+1)*2*e.maxL]
		tasks[r] = func() {
			if e.fault != nil && e.fault.WorkerFault != nil {
				e.fault.WorkerFault()
			}
			e.convPairs(z, lo, hi)
		}
	}
	e.tasks = newTaskList(tasks, nt > 1)
}

// fire runs term t's one fast-convolution level due at column j (a nonzero
// multiple of the base segment length) for every member: with v the number
// of trailing zero bits of j/base, the level covers the L = base·2^v
// just-completed columns [j−L, j) and accumulates their contribution to
// columns [j, min(j+L, m)). The context is checked here — a firing is the
// largest indivisible unit of work in the tier — and worker panics are
// recovered into the returned error.
func (e *historyEngine) fire(t *historyTerm, j int) error {
	if e.ctx != nil {
		if err := e.ctx.Err(); err != nil {
			return err
		}
	}
	L := e.fftBase << bits.TrailingZeros(uint(j/e.fftBase))
	outLen := min(L, e.m-j)
	if outLen <= 0 {
		return nil
	}
	e.cur = firing{t: t, ker: e.fftKernel(t, L), a: j - L, L: L, j: j, outLen: outLen}
	return e.tasks.do()
}

// convPairs convolves the (member, row pair) range [lo, hi) of the current
// firing — pair p is rows 2q and 2q+1 of member p / pairs, q = p mod pairs —
// against the kernel spectrum and accumulates conv[L+r] into future column
// j+r: conv[L+r] = Σ_p seg[p]·k[L+r−p] with the lag L+r−p ranging over
// [r+1, L+r] ⊂ [1, 2L−1], so the zero-padded 2L-point circular convolution
// never wraps and equals the linear one. z is the task's transform buffer.
//
// The two rows ride in one complex transform, z = s₀·row(2q) + i·s₁·row(2q+1),
// so the product's real part is s₀·conv(row(2q)) and its imaginary part
// s₁·conv(row(2q+1)). The power-of-two scales bring each row's largest
// magnitude into [½, 1): transform roundoff is relative to |z|, so without
// them a row 2¹⁰⁰ times smaller than its mate would drown in the mate's
// rounding noise. An all-zero row is not accumulated, so it stays exactly
// zero rather than picking up its mate's noise. Each row's accumulator slice
// is touched by exactly one task, making the fan-out race-free and the
// results independent of the worker count. The gather walks the segment's
// slab block at stride n; the scaling, the transform and the accumulation
// run on internal/fft's kernels.
func (e *historyEngine) convPairs(z []complex128, lo, hi int) {
	f := &e.cur
	n, L, pairs := e.n, f.L, (e.n+1)/2
	z = z[:2*L]
	plan := fft.PlanFor(2 * L)
	seg := z[:L]
	for p := lo; p < hi; p++ {
		blk := e.xs[p/pairs][f.a*n : (f.a+L)*n]
		acc := f.t.fft.acc[p/pairs]
		i0, i1 := 2*(p%pairs), 2*(p%pairs)+1
		paired := i1 < n
		mx0, mx1 := 0.0, 0.0
		for q, off := 0, i0; q < len(seg); q, off = q+1, off+n {
			v0, v1 := blk[off], 0.0
			if paired {
				v1 = blk[off+1]
			}
			seg[q] = complex(v0, v1)
			if v := math.Abs(v0); v > mx0 {
				mx0 = v
			}
			if v := math.Abs(v1); v > mx1 {
				mx1 = v
			}
		}
		if isExactZero(mx0) && isExactZero(mx1) {
			continue
		}
		s0, u0 := pow2Scale(mx0)
		s1, u1 := pow2Scale(mx1)
		fft.ScaleParts(seg, s0, s1)
		plan.Convolve(z, f.ker)
		out := z[L : L+f.outLen]
		if !isExactZero(mx0) {
			fft.AddReal(acc.Row(i0)[f.j:f.j+f.outLen], out, u0)
		}
		if !isExactZero(mx1) {
			fft.AddImag(acc.Row(i1)[f.j:f.j+f.outLen], out, u1)
		}
	}
}

// pow2Scale returns the power of two s that brings mx (> 0) into [½, 1),
// and its inverse. The exponent is clamped so both stay normal numbers; a
// zero mx yields 1, 1.
func pow2Scale(mx float64) (s, inv float64) {
	if isExactZero(mx) {
		return 1, 1
	}
	_, exp := math.Frexp(mx)
	if exp > 1021 {
		exp = 1021
	} else if exp < -1021 {
		exp = -1021
	}
	return math.Ldexp(1, -exp), math.Ldexp(1, exp)
}

// fftKernel returns — building and caching on first use — the spectrum of
// the 2L-point lag kernel k[0] = 0, k[d] = c_d (coefficients beyond the grid
// are zero), in the bit-reversed order ForwardDIF produces and prescaled by
// the exact factor 1/(2L), so that convPairs' product needs neither a
// reordering nor the inverse transform's normalization. It runs on the
// orchestrating goroutine before the pair fan-out, so each (term, L) pays
// for one kernel transform per group, whatever the group's width. The
// spectrum is written into its still-zero slot of the term's backing store.
func (e *historyEngine) fftKernel(t *historyTerm, L int) []complex128 {
	if s, ok := t.fft.ker[L]; ok {
		return s
	}
	n2 := 2 * L
	spec := t.fft.spec[2*(L-e.fftBase) : 2*(L-e.fftBase)+n2]
	for d := 1; d < n2 && d < len(t.toe); d++ {
		spec[d] = complex(t.toe[d], 0)
	}
	fft.PlanFor(n2).ForwardDIF(spec)
	inv := 1 / float64(n2)
	for q, v := range spec {
		spec[q] = complex(real(v)*inv, imag(v)*inv)
	}
	t.fft.ker[L] = spec
	return spec
}
