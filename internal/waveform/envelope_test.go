package waveform

import (
	"math"
	"sort"
	"testing"
)

// Envelope statistics against direct computation on a small known grid.
func TestEnvelopeStatistics(t *testing.T) {
	const n, m, K = 2, 4, 7
	env, err := NewEnvelope(n, m, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Scenario s, state i, column j → deterministic synthetic value.
	val := func(s, i, j int) float64 {
		return float64(s-3)*0.5 + float64(i) + 0.1*float64(j)
	}
	for s := 0; s < K; s++ {
		for j := 0; j < m; j++ {
			col := make([]float64, n)
			for i := range col {
				col[i] = val(s, i, j)
			}
			if err := env.ObserveColumn(j, col); err != nil {
				t.Fatal(err)
			}
		}
	}
	if env.Count() != K {
		t.Fatalf("count %d, want %d", env.Count(), K)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			var mn, mx, sum = math.Inf(1), math.Inf(-1), 0.0
			for s := 0; s < K; s++ {
				v := val(s, i, j)
				mn, mx, sum = math.Min(mn, v), math.Max(mx, v), sum+v
			}
			if got := env.Min(i, j); math.Abs(got-mn) > 1e-15 {
				t.Fatalf("min(%d,%d) = %g, want %g", i, j, got, mn)
			}
			if got := env.Max(i, j); math.Abs(got-mx) > 1e-15 {
				t.Fatalf("max(%d,%d) = %g, want %g", i, j, got, mx)
			}
			if got, want := env.Mean(i, j), sum/K; math.Abs(got-want) > 1e-12 {
				t.Fatalf("mean(%d,%d) = %g, want %g", i, j, got, want)
			}
			var m2 float64
			for s := 0; s < K; s++ {
				d := val(s, i, j) - sum/K
				m2 += d * d
			}
			if got, want := env.Std(i, j), math.Sqrt(m2/(K-1)); math.Abs(got-want) > 1e-12 {
				t.Fatalf("std(%d,%d) = %g, want %g", i, j, got, want)
			}
		}
	}
	// Quantiles at probe columns: samples are s-indexed evenly spaced values,
	// so the median is the s=3 value and the extremes are exact.
	for _, j := range []int{1, 3} {
		for i := 0; i < n; i++ {
			for _, c := range []struct{ q, want float64 }{
				{0, val(0, i, j)},
				{0.5, val(3, i, j)},
				{1, val(6, i, j)},
			} {
				got, err := env.Quantile(i, j, c.q)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(got-c.want) > 1e-15 {
					t.Fatalf("q%.1f(%d,%d) = %g, want %g", c.q, i, j, got, c.want)
				}
			}
		}
	}
	// Non-probe columns refuse quantiles.
	if _, err := env.Quantile(0, 0, 0.5); err == nil {
		t.Fatal("quantile at non-probe column should fail")
	}
	if _, err := env.Quantile(0, 1, 1.5); err == nil {
		t.Fatal("out-of-range quantile should fail")
	}
}

// Identical observation sequences produce bit-identical statistics — the
// envelope side of the sweep determinism contract.
func TestEnvelopeDeterministicBits(t *testing.T) {
	const n, m, K = 3, 5, 64
	run := func() *Envelope {
		env, err := NewEnvelope(n, m, 2)
		if err != nil {
			t.Fatal(err)
		}
		x := 0.1
		for s := 0; s < K; s++ {
			for j := 0; j < m; j++ {
				col := make([]float64, n)
				for i := range col {
					x = math.Mod(x*997.13+float64(i)*0.01, 3.7)
					col[i] = x
				}
				if err := env.ObserveColumn(j, col); err != nil {
					t.Fatal(err)
				}
			}
		}
		return env
	}
	a, b := run(), run()
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			for name, pair := range map[string][2]float64{
				"min":  {a.Min(i, j), b.Min(i, j)},
				"max":  {a.Max(i, j), b.Max(i, j)},
				"mean": {a.Mean(i, j), b.Mean(i, j)},
				"std":  {a.Std(i, j), b.Std(i, j)},
			} {
				if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
					t.Fatalf("%s(%d,%d) differs across identical runs", name, i, j)
				}
			}
		}
	}
	qa, err := a.Quantile(1, 2, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	qb, err := b.Quantile(1, 2, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(qa) != math.Float64bits(qb) {
		t.Fatal("quantile differs across identical runs")
	}
}

func TestEnvelopeValidation(t *testing.T) {
	if _, err := NewEnvelope(0, 4); err == nil {
		t.Fatal("zero states should fail")
	}
	if _, err := NewEnvelope(2, 4, 9); err == nil {
		t.Fatal("probe column out of range should fail")
	}
	env, err := NewEnvelope(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.ObserveColumn(7, make([]float64, 2)); err == nil {
		t.Fatal("column out of range should fail")
	}
	if err := env.ObserveColumn(0, make([]float64, 3)); err == nil {
		t.Fatal("wrong state count should fail")
	}
}

// stateMajorFold is the reference fold: the same per-cell recurrence over
// state-major storage (cell i·m+j), the layout Envelope used before it went
// column-major.
type stateMajorFold struct {
	n, m               int
	min, max, mean, m2 []float64
	counts             []int64
	samples            map[[2]int][]float64 // (state, probe column) → values
	probe              map[int]bool
}

func newStateMajorFold(n, m int, probes ...int) *stateMajorFold {
	f := &stateMajorFold{n: n, m: m, min: make([]float64, n*m), max: make([]float64, n*m),
		mean: make([]float64, n*m), m2: make([]float64, n*m), counts: make([]int64, m),
		samples: map[[2]int][]float64{}, probe: map[int]bool{}}
	for c := range f.min {
		f.min[c], f.max[c] = math.Inf(1), math.Inf(-1)
	}
	for _, j := range probes {
		f.probe[j] = true
	}
	return f
}

func (f *stateMajorFold) observe(j int, x []float64) {
	f.counts[j]++
	cnt := float64(f.counts[j])
	for i, v := range x {
		c := i*f.m + j
		if v < f.min[c] {
			f.min[c] = v
		}
		if v > f.max[c] {
			f.max[c] = v
		}
		d := v - f.mean[c]
		f.mean[c] += d / cnt
		f.m2[c] += d * (v - f.mean[c])
		if f.probe[j] {
			f.samples[[2]int{i, j}] = append(f.samples[[2]int{i, j}], v)
		}
	}
}

// The column-major envelope folds a fixed scenario stream — chunked, so
// columns interleave across scenarios — into statistics Float64bits-equal
// to the state-major reference fold, quantiles included.
func TestEnvelopeMatchesStateMajorFold(t *testing.T) {
	const n, m, K, chunk = 5, 9, 37, 8
	probes := []int{2, 8}
	env, err := NewEnvelope(n, m, probes...)
	if err != nil {
		t.Fatal(err)
	}
	ref := newStateMajorFold(n, m, probes...)
	x := 0.37
	col := make([]float64, n)
	for lo := 0; lo < K; lo += chunk {
		for j := 0; j < m; j++ {
			for s := lo; s < min(lo+chunk, K); s++ {
				for i := range col {
					x = math.Mod(x*913.7+float64(s+i)*0.013, 5.3) - 2.1
					col[i] = x
				}
				if err := env.ObserveColumn(j, col); err != nil {
					t.Fatal(err)
				}
				ref.observe(j, col)
			}
		}
	}
	same := func(name string, i, j int, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s(%d,%d) = %.17g, reference %.17g", name, i, j, got, want)
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			c := i*m + j
			same("min", i, j, env.Min(i, j), ref.min[c])
			same("max", i, j, env.Max(i, j), ref.max[c])
			same("mean", i, j, env.Mean(i, j), ref.mean[c])
			same("std", i, j, env.Std(i, j), math.Sqrt(ref.m2[c]/float64(ref.counts[j]-1)))
		}
		for _, j := range probes {
			sorted := append([]float64(nil), ref.samples[[2]int{i, j}]...)
			sort.Float64s(sorted)
			for _, q := range []float64{0, 0.1, 0.5, 0.9, 1} {
				got, err := env.Quantile(i, j, q)
				if err != nil {
					t.Fatal(err)
				}
				pos := q * float64(len(sorted)-1)
				lo := int(pos)
				want := sorted[len(sorted)-1]
				if lo < len(sorted)-1 {
					frac := pos - float64(lo)
					want = sorted[lo]*(1-frac) + sorted[lo+1]*frac
				}
				same("quantile", i, j, got, want)
			}
		}
	}
}
