package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"opmsim/internal/core"
)

// metricDef names one reported metric and its unit. BENCHMARK.json lists the
// same names, units, directions and bounds; bench_test.go keeps the two in
// step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user sees, printed by every untraced run. Each
// is defined for every workload (see README.md for the per-workload meaning).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_mean_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"cols_per_s", "1/s"},
	{"mem_mb", "MB"},
}

// perLayer are the metrics a traced run prints: one op split into the time
// each layer took, measured from outside the program, plus counters and
// probes of single layers on the workload's own inputs. Every workload
// measures each of them; figures only some workloads have (the service's
// queue and the load generator, supernodal solves, the SMW crossover rank)
// are notes on standard error.
var perLayer = []metricDef{
	{"core.first_col_ms", "ms"},
	{"core.col_us", "us"},
	{"core.col_p99_us", "us"},
	{"core.cols_ms", "ms"},
	{"core.tail_ms", "ms"},
	{"core.pencil_ms", "ms"},
	{"core.factorizations", "count"},
	{"core.tier_solves_sparse", "count"},
	{"core.degraded_ops", "count"},
	{"core.history_fft_ops", "count"},
	{"core.history_exact_ops", "count"},
	{"core.cache_hits", "count"},
	{"core.cache_misses", "count"},
	{"core.pencil_updates", "count"},
	{"core.pencil_refactors", "count"},
	{"basis.diffcoeffs_ms", "ms"},
	{"sparse.order_ms", "ms"},
	{"sparse.factor_ms", "ms"},
	{"sparse.cond1est_ms", "ms"},
	{"sparse.solve_us", "us"},
	{"sparse.panel_solve_us", "us"},
	{"sparse.fill_nnz", "count"},
	{"sparse.bbd_parts", "count"},
	{"sparse.bbd_iface_n", "count"},
	{"netgen.generate_ms", "ms"},
	{"netgen.perturb_us", "us"},
	{"circuit.assemble_ms", "ms"},
	{"circuit.stamp_delta_us", "us"},
	{"waveform.observe_us", "us"},
	{"op.ttfc_p50_ms", "ms"},
	{"op.wait_p50_ms", "ms"},
	{"op.wait_p99_ms", "ms"},
	{"op.output_bytes", "B"},
	{"runtime.peak_rss_mb", "MB"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.gc_pause_us_per_op", "us"},
	{"trace.overhead_pct", "%"},
}

// opCounters are one op's solver counters by per-layer metric name, read
// from its core.SolveReport or from the service's done record.
type opCounters map[string]float64

var counterNames = []string{
	"core.factorizations", "core.tier_solves_sparse", "core.degraded_ops",
	"core.history_fft_ops", "core.history_exact_ops", "core.cache_hits",
	"core.cache_misses", "core.pencil_updates", "core.pencil_refactors",
}

func reportCounters(rep *core.SolveReport) opCounters {
	return opCounters{
		"core.factorizations":     float64(rep.Factorizations),
		"core.tier_solves_sparse": float64(rep.TierSolves[core.TierSparseLU]),
		"core.degraded_ops":       boolf(rep.Degraded()),
		"core.history_fft_ops":    boolf(rep.HistoryEngine == string(core.HistoryFFT)),
		"core.history_exact_ops":  boolf(rep.HistoryEngine == string(core.HistoryExact)),
		"core.cache_hits":         float64(rep.FactorCacheHits),
		"core.cache_misses":       float64(rep.FactorCacheMisses),
		"core.pencil_updates":     float64(rep.PencilUpdates),
		"core.pencil_refactors":   float64(rep.PencilRefactors),
	}
}

// meanCounters sets every counter metric to its mean over the ops; with no
// ops it sets none, which fails the run.
func meanCounters(v map[string]float64, ops []opCounters) {
	if len(ops) == 0 {
		return
	}
	for _, name := range counterNames {
		var xs []float64
		for _, c := range ops {
			xs = append(xs, c[name])
		}
		v[name] = mean(xs)
	}
}

func boolf(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload run hands back: op counts, the reference
// verdict, every measured value by name, human-readable notes, and (traced
// runs) the recorded spans.
type outcome struct {
	attempted, failed int
	correct           bool
	values            map[string]float64
	notes             []string
	spans             []span
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// result selects defs from the measured values. A missing or non-finite
// value is an error: every run must print every metric of its kind.
func (o *outcome) result(defs []metricDef) (*result, error) {
	r := &result{Correct: o.correct && o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v)", d.name, v)
		}
		r.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return r, nil
}

// writeTable prints the metrics and notes of one run for people.
func writeTable(w io.Writer, workload string, r *result, notes []string) {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s: correct=%v attempted=%d failed=%d\n", workload, r.Correct, r.Attempted, r.Failed)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, n := range notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
}

func writeJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
