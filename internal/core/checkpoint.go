package core

//lint:hot

import (
	"errors"
	"fmt"
	"math"
)

// Checkpointable solves.
//
// Every piece of solver state that outlives a column — the integer-order
// recurrence lags and the FFT tier's fired segment spectra — is a
// deterministic, worker-invariant function of the committed solution columns.
// A checkpoint therefore stores only the raw committed column slabs (the shifted variable z = x − x0 exactly as the
// solver keeps it in its xbuf), and resuming replays the cheap state
// reconstruction in the same floating-point operation order the original run
// used. The replayed run then continues with bit-for-bit the operands an
// uninterrupted run would have seen, so a resumed SolveBatch emits
// Float64bits-identical columns from the resume point onward.
//
// Three structural facts make the replay exact rather than merely close:
//
//   - The integer-order recurrences read only the group's lag panels, which
//     hold the committed columns as the slabs do: replay gathers each
//     column j < j0 from the slabs and steps the recurrences exactly as the
//     live run did (panelStep.replay).
//   - The exact history tier keeps no state between columns: each history
//     sum is one ascending fold over the committed slab, so a fresh engine
//     resuming at any column j0 computes the identical sum with nothing to
//     replay.
//   - The FFT tier's segment firings are pure functions of (fire column,
//     committed columns): each firing accumulates into disjoint spectra rows
//     in ascending fire-column order. Replaying the firings below j0 in that
//     same order reproduces the accumulator bits exactly.
//
// Solve runs the same column driver as a one-scenario batch, so a
// one-scenario SolveBatch is Solve with checkpointing: that is the
// configuration the service layer uses. Solve itself takes no checkpoint
// options.

// ErrCheckpointMismatch reports a checkpoint offered to a solve (or a delta
// offered to a checkpoint) whose shape — state dimension, grid, span,
// scenario count, resolved history engine, or resolved SMW crossover rank —
// does not match.
var ErrCheckpointMismatch = errors.New("core: checkpoint mismatch")

// Checkpoint is the accumulated resumable state of a batch solve: the
// committed column prefix of every scenario, plus the shape header that pins
// which solves it may resume. It is RNG-free and engine-complete — nothing
// beyond the slabs is needed to reconstruct solver state bit for bit.
//
// Slabs hold the solver's shifted variable (z = x − x0), not the
// client-visible state x; StateColumn applies the offset with the same
// operands the solver's own column hook uses.
type Checkpoint struct {
	// N, M, K are the state dimension, BPF grid size, and scenario count of
	// the solve this checkpoint belongs to.
	N, M, K int
	// T is the time span; compared via Float64bits, since a grid with the
	// same m but different span yields different coefficients.
	T float64
	// Engine is the resolved history-engine name of the originating solve:
	// "" (no fractional terms), "exact", or "fft". Resuming under a
	// different engine would change summation order, so it must match.
	Engine string
	// UpdateCrossoverRank is the SMW crossover rank the originating solve
	// resolved (SolveReport.UpdateCrossoverRank; 0 when no scenario carries
	// a pencil delta). It fixes which delta scenarios took the update path,
	// so it must match too.
	UpdateCrossoverRank int
	// Columns is the number of committed columns: Slabs covers [0, Columns).
	Columns int
	// Slabs[s] holds scenario s's committed columns as one slab of
	// Columns*N float64s, column-major by column index (column j occupies
	// [j*N, (j+1)*N)) — the exact layout of the batch solver's xbuf prefix.
	Slabs [][]float64
}

// CheckpointDelta is the increment between two checkpoints: columns
// [From, To) of every scenario, emitted by BatchOptions.OnCheckpoint. The
// slab buffers are fresh copies owned by the receiver.
type CheckpointDelta struct {
	N, M, K             int
	T                   float64
	Engine              string
	UpdateCrossoverRank int
	From, To            int
	// Slabs[s] holds scenario s's columns [From, To) as (To-From)*N floats.
	Slabs [][]float64
}

// ApplyCheckpoint appends a delta to the checkpoint. An empty (zero-valued)
// checkpoint adopts the delta's shape header and requires From == 0;
// otherwise the delta must match the header and continue exactly at
// Columns. Errors wrap ErrCheckpointMismatch and leave the checkpoint
// unchanged.
func (cp *Checkpoint) ApplyCheckpoint(d *CheckpointDelta) error {
	if d.N <= 0 || d.K <= 0 || d.M <= 0 || len(d.Slabs) != d.K {
		return fmt.Errorf("%w: malformed delta header (n=%d m=%d k=%d slabs=%d)",
			ErrCheckpointMismatch, d.N, d.M, d.K, len(d.Slabs))
	}
	if d.From < 0 || d.To <= d.From || d.To > d.M {
		return fmt.Errorf("%w: delta range [%d,%d) outside grid of %d columns",
			ErrCheckpointMismatch, d.From, d.To, d.M)
	}
	want := (d.To - d.From) * d.N
	for s, slab := range d.Slabs {
		if len(slab) != want {
			return fmt.Errorf("%w: delta slab %d has %d values, want %d",
				ErrCheckpointMismatch, s, len(slab), want)
		}
	}
	if cp.N == 0 && cp.M == 0 && cp.K == 0 {
		cp.N, cp.M, cp.K, cp.T, cp.Engine, cp.UpdateCrossoverRank = d.N, d.M, d.K, d.T, d.Engine, d.UpdateCrossoverRank
		cp.Slabs = make([][]float64, cp.K)
	}
	if cp.N != d.N || cp.M != d.M || cp.K != d.K || math.Float64bits(cp.T) != math.Float64bits(d.T) ||
		cp.Engine != d.Engine || cp.UpdateCrossoverRank != d.UpdateCrossoverRank {
		return fmt.Errorf("%w: delta header (n=%d m=%d k=%d T=%g engine=%q crossover=%d) vs checkpoint (n=%d m=%d k=%d T=%g engine=%q crossover=%d)",
			ErrCheckpointMismatch, d.N, d.M, d.K, d.T, d.Engine, d.UpdateCrossoverRank,
			cp.N, cp.M, cp.K, cp.T, cp.Engine, cp.UpdateCrossoverRank)
	}
	if d.From != cp.Columns {
		return fmt.Errorf("%w: delta starts at column %d, checkpoint has %d committed",
			ErrCheckpointMismatch, d.From, cp.Columns)
	}
	for s := range cp.Slabs {
		cp.Slabs[s] = append(cp.Slabs[s], d.Slabs[s]...)
	}
	cp.Columns = d.To
	return nil
}

// StateColumn writes scenario s's committed column j — including the x0
// offset — into dst, using the same operands and operation order as the
// solver's OnColumn hook, so the result is bitwise-identical to the column
// the original stream emitted. x0 may be nil (zero initial state).
func (cp *Checkpoint) StateColumn(dst []float64, s, j int, x0 []float64) error {
	if s < 0 || s >= cp.K || j < 0 || j >= cp.Columns {
		return fmt.Errorf("core: checkpoint column (s=%d, j=%d) outside committed (K=%d, columns=%d)",
			s, j, cp.K, cp.Columns)
	}
	if len(dst) != cp.N || (x0 != nil && len(x0) != cp.N) {
		return fmt.Errorf("core: checkpoint column buffers: dst=%d x0=%d, want %d", len(dst), len(x0), cp.N)
	}
	zj := cp.Slabs[s][j*cp.N : (j+1)*cp.N]
	if x0 == nil {
		// The solver adds x0 even when it is all zeros; z + 0 is not a
		// bitwise no-op (it normalizes -0), so mirror the addition.
		for i := range dst {
			dst[i] = zj[i] + 0
		}
		return nil
	}
	for i := range dst {
		dst[i] = zj[i] + x0[i]
	}
	return nil
}

// validateFor checks that the checkpoint can resume a solve with the given
// shape, resolved engine name and resolved SMW crossover rank.
func (cp *Checkpoint) validateFor(n, m, K int, T float64, engine string, crossover int) error {
	if cp.N != n || cp.M != m || cp.K != K || math.Float64bits(cp.T) != math.Float64bits(T) {
		return fmt.Errorf("%w: checkpoint for (n=%d m=%d k=%d T=%g), solve is (n=%d m=%d k=%d T=%g)",
			ErrCheckpointMismatch, cp.N, cp.M, cp.K, cp.T, n, m, K, T)
	}
	if cp.Engine != engine {
		return fmt.Errorf("%w: checkpoint history engine %q, solve resolves to %q",
			ErrCheckpointMismatch, cp.Engine, engine)
	}
	if cp.UpdateCrossoverRank != crossover {
		return fmt.Errorf("%w: checkpoint SMW crossover rank %d, solve resolves to %d",
			ErrCheckpointMismatch, cp.UpdateCrossoverRank, crossover)
	}
	if cp.Columns < 0 || cp.Columns > m {
		return fmt.Errorf("%w: checkpoint has %d committed columns on a %d-column grid",
			ErrCheckpointMismatch, cp.Columns, m)
	}
	if len(cp.Slabs) != K {
		return fmt.Errorf("%w: checkpoint has %d slabs for %d scenarios", ErrCheckpointMismatch, len(cp.Slabs), K)
	}
	for s, slab := range cp.Slabs {
		if len(slab) != cp.Columns*n {
			return fmt.Errorf("%w: checkpoint slab %d has %d values, want %d",
				ErrCheckpointMismatch, s, len(slab), cp.Columns*n)
		}
	}
	return nil
}

// PencilFingerprint returns a stable fingerprint of the leading pencil a
// solve of sys on an m-column grid over [0, T) would factor: the assembled
// M = Σ_k c₀⁽ᵏ⁾·E_k structure and values mixed with the step width and the
// maximum derivative order. Submissions with equal fingerprints hit the same
// factorization — the unit the service's circuit breaker trips on.
func PencilFingerprint(sys *System, m int, T float64) (uint64, error) {
	msys, h, err := LeadingPencil(sys, m, T)
	if err != nil {
		return 0, err
	}
	fp := fingerprintCSR(msys)
	fp = fpMix64(fp, math.Float64bits(h))
	fp = fpMix64(fp, math.Float64bits(sys.MaxOrder()))
	return fp, nil
}

// resume restores the run's state to the end of the checkpoint's committed
// prefix: it prefills each scenario's column slab and has every group step
// replay its history state (the integer-order panel recurrences and the
// group engine's FFT segment firings) in the exact floating-point
// operation order of the original solve, so the continuation is
// bitwise-exact. Fan-out is one task per group, as in the column loop.
func (r *columnRun) resume(cp *Checkpoint) error {
	j0, n := cp.Columns, r.n
	for s, st := range r.states {
		copy(st.xbuf[:j0*n], cp.Slabs[s])
	}
	if j0 == 0 {
		return nil
	}
	errs := make([]error, len(r.steps))
	tasks := make([]func(), len(r.steps))
	for g, step := range r.steps {
		tasks[g] = func() { errs[g] = step.group().replay(j0) }
	}
	if err := r.runTasks(tasks); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// resumeAt replays the engine-internal history state a run committed through
// column j0 would hold. Only the FFT tier carries state that must be rebuilt
// eagerly: every segment firing strictly below j0 is refired, for all the
// group's members at once, in ascending fire-column order (the
// chronological order of the original run), restoring the spectra
// accumulators bit for bit. A firing due at j0 itself happens live when the
// loop solves column j0. The exact tier holds no state.
func (e *historyEngine) resumeAt(j0 int) error {
	for _, t := range e.terms {
		if t == nil || t.fft == nil {
			continue
		}
		for c := e.fftBase; c < j0; c += e.fftBase {
			t.fft.fired = c
			if err := e.fire(t, c); err != nil {
				return err
			}
		}
	}
	return nil
}
