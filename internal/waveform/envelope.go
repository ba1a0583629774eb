package waveform

//lint:hot

import (
	"fmt"
	"math"
	"sort"
)

// Envelope accumulates per-(state, column) waveform statistics across the
// scenarios of a Monte-Carlo or corner sweep without retaining the waveforms
// themselves: running min/max bounds, streaming mean and variance (Welford's
// recurrence, numerically stable at 10⁵+ scenarios), and — at a small set of
// caller-chosen probe columns — exact quantiles from retained samples. Memory
// is O(states·columns) for the envelope plus O(states·probes·scenarios) for
// the probe samples, so a 10⁵-scenario sweep over a 10³-state grid stays far
// below materializing 10⁵ solutions.
//
// Determinism: Observe folds scenarios in call order with a fixed left-to-
// right recurrence, so feeding the same scenario waveforms in the same order
// reproduces every statistic to the bit (the property the sweep driver's
// seeded determinism test pins down).
type Envelope struct {
	n, m       int
	min, max   []float64 // n·m, column-major: index j·n+i
	mean, m2   []float64 // Welford running mean and Σ(x−mean)² per cell
	counts     []int64   // scenarios folded, per column
	probeSlot  map[int]int
	probeOrder []int       // probe columns in ascending order
	samples    [][]float64 // [slot·n + i] → retained per-scenario values
}

// NewEnvelope builds an accumulator for nStates×nCols waveform grids.
// probeCols lists the column indices (deduplicated, order-insensitive) at
// which full per-scenario samples are retained for exact quantiles.
func NewEnvelope(nStates, nCols int, probeCols ...int) (*Envelope, error) {
	if nStates <= 0 || nCols <= 0 {
		return nil, fmt.Errorf("waveform: envelope needs positive dimensions, got %d×%d", nStates, nCols)
	}
	e := &Envelope{
		n: nStates, m: nCols,
		min:    make([]float64, nStates*nCols),
		max:    make([]float64, nStates*nCols),
		mean:   make([]float64, nStates*nCols),
		m2:     make([]float64, nStates*nCols),
		counts: make([]int64, nCols),
	}
	for i := range e.min {
		e.min[i] = math.Inf(1)
		e.max[i] = math.Inf(-1)
	}
	e.probeSlot = map[int]int{}
	for _, j := range probeCols {
		if j < 0 || j >= nCols {
			return nil, fmt.Errorf("waveform: probe column %d outside [0,%d)", j, nCols)
		}
		if _, dup := e.probeSlot[j]; dup {
			continue
		}
		e.probeSlot[j] = len(e.probeOrder)
		e.probeOrder = append(e.probeOrder, j)
	}
	sort.Ints(e.probeOrder)
	for slot, j := range e.probeOrder {
		e.probeSlot[j] = slot
	}
	e.samples = make([][]float64, len(e.probeOrder)*nStates)
	return e, nil
}

// ObserveColumn folds one scenario's column j (a length-nStates snapshot)
// into the envelope. Each (scenario, column) pair must be observed exactly
// once, and scenarios must arrive in the same order at every column — the
// natural shape of the batch solver's OnColumn hook, which visits columns in
// order and scenarios in index order within each column (chunked sweeps
// repeat that pattern chunk by chunk). Beyond that the interleaving of
// columns is free: per-column Welford counts keep the recurrence exact
// whether a scenario streams all its columns before the next scenario starts
// or a whole chunk advances column by column.
func (e *Envelope) ObserveColumn(j int, x []float64) error {
	if j < 0 || j >= e.m {
		return fmt.Errorf("waveform: envelope column %d outside [0,%d)", j, e.m)
	}
	if len(x) != e.n {
		return fmt.Errorf("waveform: envelope column has %d states, want %d", len(x), e.n)
	}
	e.counts[j]++
	cnt := float64(e.counts[j])
	lo, hi := j*e.n, (j+1)*e.n
	mn, mx, mean, m2 := e.min[lo:hi], e.max[lo:hi], e.mean[lo:hi], e.m2[lo:hi]
	for i, v := range x {
		if v < mn[i] {
			mn[i] = v
		}
		if v > mx[i] {
			mx[i] = v
		}
		d := v - mean[i]
		mean[i] += d / cnt
		m2[i] += d * (v - mean[i])
	}
	if slot, probed := e.probeSlot[j]; probed {
		for i, v := range x {
			s := slot*e.n + i
			e.samples[s] = append(e.samples[s], v)
		}
	}
	return nil
}

// Count returns the number of scenarios folded in (the observation count of
// the most-observed column, so partially streamed scenarios count once any
// of their columns has arrived).
func (e *Envelope) Count() int64 {
	var max int64
	for _, c := range e.counts {
		if c > max {
			max = c
		}
	}
	return max
}

// States and Columns return the grid dimensions.
func (e *Envelope) States() int  { return e.n }
func (e *Envelope) Columns() int { return e.m }

// ProbeColumns returns the probe columns in ascending order.
func (e *Envelope) ProbeColumns() []int { return append([]int(nil), e.probeOrder...) }

// Min and Max return the envelope bounds at (state, column); ±Inf before any
// scenario is observed.
func (e *Envelope) Min(i, j int) float64 { return e.min[j*e.n+i] }
func (e *Envelope) Max(i, j int) float64 { return e.max[j*e.n+i] }

// Mean returns the running mean at (state, column).
func (e *Envelope) Mean(i, j int) float64 { return e.mean[j*e.n+i] }

// Std returns the sample standard deviation at (state, column); 0 with fewer
// than two scenarios observed at that column.
func (e *Envelope) Std(i, j int) float64 {
	if e.counts[j] < 2 {
		return 0
	}
	return math.Sqrt(e.m2[j*e.n+i] / float64(e.counts[j]-1))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1, linear interpolation between
// order statistics) of the retained samples at (state, column). The column
// must be one of the probe columns passed to NewEnvelope.
func (e *Envelope) Quantile(i, j int, q float64) (float64, error) {
	slot, ok := e.probeSlot[j]
	if !ok {
		return 0, fmt.Errorf("waveform: column %d is not a probe column", j)
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("waveform: quantile %g outside [0,1]", q)
	}
	s := e.samples[slot*e.n+i]
	if len(s) == 0 {
		return 0, fmt.Errorf("waveform: no samples retained at state %d column %d", i, j)
	}
	sorted := append([]float64(nil), s...)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac, nil
}
