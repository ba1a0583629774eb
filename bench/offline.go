package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"opmsim/internal/core"
)

// offline is a closed-loop workload: one caller runs ops back to back,
// each op calling into the solver in process.
type offline interface {
	// build generates the workload's inputs from seed and assembles the
	// model, returning how long each of the two steps took.
	build(seed uint64) (gen, asm time.Duration, err error)
	// op runs one operation and fills r; id counts ops from 0 within one
	// set-up, warm-up ops included.
	op(id int, r *opRecord) error
	// verify runs the independent reference route after the timed phase.
	verify(o *outcome) error
	// problem describes the inputs of the layer probes.
	problem() problem
}

// opRecord is one op as seen from outside: when it was due (the previous
// op's end, in a closed loop), its span, the solver call inside it, its
// column callbacks, and the solver's report.
type opRecord struct {
	traced, failed     bool
	due, start, end    time.Time
	callStart, callEnd time.Time // the Solve or SolveBatch call inside the op
	first              time.Time // the first column callback
	clk                *colClock // traced: per-column stamps, dropped once summarized
	prep               []prepStamp
	report             core.SolveReport
	cols               int // scenario-columns committed
	bytes              int // bytes of solution the op produced
	sum                opSummary
}

// prepStamp times the input preparation of one scenario (mc-sweep).
type prepStamp struct{ perturbAt, stampAt, stampEnd time.Time }

// opSummary is a traced op reduced to its layer times.
type opSummary struct {
	firstColMS, colsMS, tailMS float64
	gapP50US, gapP99US         float64
	observeUS                  []float64
}

// colClock timestamps the column callbacks of one op. Untraced ops keep only
// the first callback's time (ttfc); traced ops keep every callback's entry
// and, where the callback does work of its own (the mc-sweep envelope fold),
// its exit.
type colClock struct {
	traced       bool
	n            int
	first        time.Time
	enter, leave []time.Time
}

func (c *colClock) reset(traced bool, m int) {
	c.traced, c.n, c.first = traced, 0, time.Time{}
	if traced && cap(c.enter) < m {
		c.enter = make([]time.Time, 0, m)
		c.leave = make([]time.Time, 0, m)
	}
	c.enter, c.leave = c.enter[:0], c.leave[:0]
}

// tick marks the entry of one column callback.
func (c *colClock) tick() {
	if c.traced {
		t := now()
		c.enter = append(c.enter, t)
		if c.n == 0 {
			c.first = t
		}
	} else if c.n == 0 {
		c.first = now()
	}
	c.n++
}

// done marks the exit of a callback that did work after tick.
func (c *colClock) done() {
	if c.traced {
		c.leave = append(c.leave, now())
	}
}

// warmupOps run untimed after every set-up, so caches fill and lazy set-up
// finishes before timing starts.
const warmupOps = 3

// runOffline runs one closed-loop workload: set-up (several times, for a
// steady setup_s), the timed phase, the reference check, and — traced —
// the layer split and probes.
func runOffline(name string, w offline, cfg runConfig) (*outcome, error) {
	o := newOutcome()
	var setups, gens, asms []float64
	for i := 0; i < cfg.setups(); i++ {
		runtime.GC() // each set-up starts from the same clean heap
		t0 := now()
		gen, asm, err := w.build(cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		for id := 0; id < warmupOps; id++ {
			var r opRecord
			if err := w.op(id, &r); err != nil {
				return nil, fmt.Errorf("warm-up op: %w", err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		gens = append(gens, ms(gen))
		asms = append(asms, ms(asm))
	}
	o.values["setup_s"] = median(setups)
	o.values["netgen.generate_ms"] = median(gens)
	o.values["circuit.assemble_ms"] = median(asms)

	// The timed phase. Traced runs trace every other op, so the untraced
	// ops in between measure what tracing costs.
	tr := newTracer(name, cfg.trace)
	var recs []opRecord
	runtime.GC()
	mem0 := readMem()
	sampler := startMemSampler()
	start := now()
	deadline := start.Add(cfg.duration())
	prevEnd := start
	for id := warmupOps; cfg.maxOps == 0 || len(recs) < cfg.maxOps; id++ {
		if len(recs) > 0 && !now().Before(deadline) {
			break
		}
		r := opRecord{traced: cfg.trace && len(recs)%2 == 0, due: prevEnd}
		if err := w.op(id, &r); err != nil {
			r.failed = true
			o.failed++
			o.notef("op %d failed: %v", len(recs), err)
		}
		if r.traced {
			summarize(tr, len(recs), &r)
		}
		prevEnd = r.end
		recs = append(recs, r)
	}
	wall := time.Since(start)
	o.values["mem_mb"] = sampler.finish()
	mem1 := readMem()
	o.values["runtime.peak_rss_mb"] = peakRSSMB()
	o.attempted = len(recs)

	var lat, ttfc []float64
	cols := 0
	for i := range recs {
		r := &recs[i]
		if !r.failed {
			lat = append(lat, ms(r.end.Sub(r.start)))
			ttfc = append(ttfc, ms(r.first.Sub(r.start)))
			cols += r.cols
		}
	}
	o.values["op_mean_ms"] = mean(lat)
	o.values["op_p90_ms"] = quantile(lat, 0.9)
	o.notef("op p50 %.4g ms over %d ops", median(lat), len(lat))
	o.values["op.ttfc_p50_ms"] = quantile(ttfc, 0.5)
	o.values["cols_per_s"] = float64(cols) / wall.Seconds()

	o.correct = true
	if err := w.verify(o); err != nil {
		return nil, fmt.Errorf("reference check: %w", err)
	}
	if !cfg.trace {
		return o, nil
	}

	o.spans = tr.spans
	offlineLayerMetrics(o, recs)
	runtimeMetrics(o, mem0, mem1, len(recs))
	var ratios []float64
	for i := 0; i+1 < len(recs); i += 2 { // op i is traced, op i+1 not
		if a, b := &recs[i], &recs[i+1]; !a.failed && !b.failed {
			ratios = append(ratios, float64(a.end.Sub(a.start))/float64(b.end.Sub(b.start)))
		}
	}
	o.values["trace.overhead_pct"] = overheadPct(ratios)
	if err := probeLayers(w.problem(), o.values); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	return o, nil
}

// summarize reduces a traced op to its layer times and records its spans:
// the op, its input preparation, the solver call, and the call split at the
// first and last column callbacks. A layer's self time is its span minus
// the callback work inside it.
func summarize(tr *tracer, op int, r *opRecord) {
	tr.add(op, "op", "", r.start, r.end)
	for _, p := range r.prep {
		tr.add(op, "netgen.perturb", "op", p.perturbAt, p.stampAt)
		tr.add(op, "circuit.stamp_delta", "op", p.stampAt, p.stampEnd)
	}
	tr.add(op, "core.solve", "op", r.callStart, r.callEnd)
	c := r.clk
	r.clk = nil
	if c == nil || len(c.enter) == 0 {
		return
	}
	enter := c.enter
	last := enter[len(enter)-1]
	tr.add(op, "core.first_col", "core.solve", r.callStart, enter[0])
	tr.add(op, "core.cols", "core.solve", enter[0], last)
	tr.add(op, "core.tail", "core.solve", last, r.callEnd)

	// The fold inside callback j runs between column j's entry and column
	// j+1's; the last one runs in the tail.
	work := func(j int) time.Duration {
		if j < len(c.leave) {
			return c.leave[j].Sub(enter[j])
		}
		return 0
	}
	s := &r.sum
	gaps := make([]float64, 0, len(enter))
	cols := last.Sub(enter[0])
	for j := 1; j < len(enter); j++ {
		gaps = append(gaps, us(enter[j].Sub(enter[j-1])-work(j-1)))
		cols -= work(j - 1)
	}
	for j := range c.leave {
		parent := "core.cols"
		if j == len(enter)-1 {
			parent = "core.tail"
		}
		tr.add(op, "waveform.observe", parent, enter[j], c.leave[j])
		s.observeUS = append(s.observeUS, us(work(j)))
	}
	s.firstColMS = ms(enter[0].Sub(r.callStart))
	s.colsMS = ms(cols)
	s.tailMS = ms(r.callEnd.Sub(last) - work(len(enter)-1))
	if len(gaps) > 0 {
		s.gapP50US = quantile(gaps, 0.5)
		s.gapP99US = quantile(gaps, 0.99)
	}
}

// offlineLayerMetrics computes the per-layer metrics from the traced ops.
func offlineLayerMetrics(o *outcome, recs []opRecord) {
	var first, cols, tail, gapP50, gapP99, wait, bytes, obs, perturb, stamp, snodal []float64
	var counters []opCounters
	var crossover []int
	for i := range recs {
		r := &recs[i]
		if !r.traced || r.failed {
			continue
		}
		s := &r.sum
		first = append(first, s.firstColMS)
		cols = append(cols, s.colsMS)
		tail = append(tail, s.tailMS)
		gapP50 = append(gapP50, s.gapP50US)
		gapP99 = append(gapP99, s.gapP99US)
		obs = append(obs, s.observeUS...)
		wait = append(wait, ms(r.start.Sub(r.due)))
		bytes = append(bytes, float64(r.bytes))
		for _, p := range r.prep {
			perturb = append(perturb, us(p.stampAt.Sub(p.perturbAt)))
			stamp = append(stamp, us(p.stampEnd.Sub(p.stampAt)))
		}
		counters = append(counters, reportCounters(&r.report))
		snodal = append(snodal, float64(r.report.TierSolves[core.TierSupernodal]))
		if !slices.Contains(crossover, r.report.UpdateCrossoverRank) {
			crossover = append(crossover, r.report.UpdateCrossoverRank)
		}
	}
	v := o.values
	v["core.first_col_ms"] = median(first)
	v["core.cols_ms"] = median(cols)
	v["core.tail_ms"] = median(tail)
	v["core.col_us"] = median(gapP50)
	v["core.col_p99_us"] = median(gapP99)
	meanCounters(v, counters)
	v["op.wait_p50_ms"] = quantile(wait, 0.5)
	v["op.wait_p99_ms"] = quantile(wait, 0.99)
	v["op.output_bytes"] = mean(bytes)
	o.notef("supernodal-tier solves per op %.4g; SMW crossover ranks %v", mean(snodal), crossover)
	if len(obs) > 0 {
		v["waveform.observe_us"] = median(obs)
	}
	if len(perturb) > 0 {
		v["netgen.perturb_us"] = median(perturb)
		v["circuit.stamp_delta_us"] = median(stamp)
	}
}
