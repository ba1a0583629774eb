package main

import (
	"math"
	"sort"
	"time"
)

// now is the benchmark's single wall-clock read.
func now() time.Time {
	//lint:ignore nondet the benchmark measures wall time by design; no solver decision reads this clock
	return time.Now()
}

// quantile returns the q-quantile of xs by linear interpolation between order
// statistics. It sorts a copy, so callers may pass live slices; an empty
// slice yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(xs, n=4) computes them (the "exclusive"
// method), so the spreads -compare prints are the ones the acceptance rule
// is stated in. A single value is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	var out [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timeMedian runs f at least minReps times and until budget has elapsed (at
// most maxReps times) and returns the median duration of one call.
func timeMedian(minReps int, budget time.Duration, f func() error) (time.Duration, error) {
	const maxReps = 2000
	var ds []float64
	start := now()
	for len(ds) < minReps || (len(ds) < maxReps && time.Since(start) < budget) {
		t0 := now()
		if err := f(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(median(ds)), nil
}

// relDiff is max|a−b| / max|b| over two equally long vectors, the relative
// distance every reference check reports.
func relDiff(a, b []float64) float64 {
	worst, scale := 0.0, 0.0
	for i := range b {
		if d := math.Abs(a[i] - b[i]); d > worst || math.IsNaN(d) {
			worst = d
		}
		if v := math.Abs(b[i]); v > scale {
			scale = v
		}
	}
	if scale > 0 {
		return worst / scale
	}
	return worst
}
