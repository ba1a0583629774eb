package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"opmsim/internal/circuit"
	"opmsim/internal/core"
	"opmsim/internal/netgen"
	"opmsim/internal/serve"
	"opmsim/internal/waveform"
)

// serve-mix drives an in-process serve.New(serve.Config{}) server on a
// loopback listener with an open loop: requests are sent on a fixed-interval
// schedule whatever the server does, from two sender goroutines, each with
// its own connection, and every latency is timed from when the request was
// due. It is the only workload that reaches request parsing, the admission
// queue, NDJSON encoding and the shared factor cache, and its mix holds
// cache hits and misses and both history engines, so a gain for one request
// class that costs another shows.

// serveClass is one request class of the mix and how many jobs of each
// block of 20 consecutive jobs belong to it.
type serveClass struct {
	name     string
	perBlock int
}

// The classes, indexing serveClasses.
const (
	rcHot = iota
	rcCold
	cpeFFT
	cpeExact
	rcSweep
	rcTol
)

// The mix is synthetic: no recorded traffic backs its shares (40/15/15/10/
// 10/10%). It is dealt in blocks of 20 jobs of fixed composition, shuffled
// by the seed within each block, so every seed offers the same load and
// differs only in order.
var serveClasses = []serveClass{
	rcHot:    {"rc-hot", 8},    // 20-section RC ladder from a pool of 8 decks: cache hits
	rcCold:   {"rc-cold", 3},   // 200-section ladder with values unique to the request: cache misses
	cpeFFT:   {"cpe-fft", 3},   // 20-section CPE ladder, m = 2048: the FFT history engine
	cpeExact: {"cpe-exact", 2}, // the same ladder at m = 256, below the FFT crossover: the exact engine
	rcSweep:  {"rc-sweep", 2},  // amplitude sweep of 16 scenarios on a pool deck
	rcTol:    {"rc-tol", 2},    // tolerance sweep of 16 scenarios (±5%), seed unique to the request
}

const (
	// serveRate is the offered load in requests per second, well under the
	// mix's closed-loop capacity on a 2-core machine (about 80 jobs/s), so a
	// queue forms without a growing backlog.
	serveRate  = 34.0
	serveConns = 2
	hotPool    = 8
	// serveGoodLatency is the latency limit goodput counts against.
	serveGoodLatency = 100 * time.Millisecond
)

// serveJob is one scheduled request.
type serveJob struct {
	class int
	due   time.Duration // offset from the start of the timed phase
	req   serve.Request
	body  []byte
	scen  int // scenarios the request sweeps
}

// mixGen draws requests from seed.
type mixGen struct {
	rng *rand.Rand
	hot []string
	cpe string
}

func newMixGen(seed uint64) *mixGen {
	g := &mixGen{rng: rand.New(rand.NewSource(int64(seed)))}
	for i := 0; i < hotPool; i++ {
		g.hot = append(g.hot, rcDeck("rc-hot "+strconv.Itoa(i), 20, jitter(g.rng, 1e3, 0.2), jitter(g.rng, 1e-6, 0.2)))
	}
	g.cpe = cpeDeck(20, jitter(g.rng, 50, 0.05), jitter(g.rng, 0.8e-9, 0.05))
	return g
}

// next draws one request of class c.
func (g *mixGen) next(c int) (serveJob, error) {
	j := serveJob{class: c, scen: 1}
	switch c {
	case rcHot:
		j.req = serve.Request{Netlist: g.hot[g.rng.Intn(hotPool)], Steps: 500}
	case rcCold:
		j.req = serve.Request{Netlist: rcDeck("rc-cold", 200, jitter(g.rng, 1e3, 0.2), jitter(g.rng, 1e-6, 0.2)), Steps: 500}
	case cpeFFT:
		j.req = serve.Request{Netlist: g.cpe, Steps: 2048}
	case cpeExact:
		j.req = serve.Request{Netlist: g.cpe, Steps: 256}
	case rcSweep:
		j.req = serve.Request{Netlist: g.hot[g.rng.Intn(hotPool)], Steps: 500,
			Sweep: &serve.SweepSpec{Count: 16, Lo: &serve.Value{V: 0.5}, Hi: &serve.Value{V: 1.5}}}
		j.scen = 16
	case rcTol:
		j.req = serve.Request{Netlist: g.hot[g.rng.Intn(hotPool)], Steps: 500,
			Sweep: &serve.SweepSpec{Count: 16, Tol: &serve.Value{V: 0.05}, Seed: g.rng.Uint64() | 1, Elements: 8}}
		j.scen = 16
	}
	var err error
	j.body, err = json.Marshal(j.req)
	return j, err
}

// schedule draws the classes of n jobs, block by block.
func (g *mixGen) schedule(n int) []int {
	var block, out []int
	for c, cl := range serveClasses {
		for i := 0; i < cl.perBlock; i++ {
			block = append(block, c)
		}
	}
	for len(out) < n {
		g.rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out[:n]
}

// rcDeck is a k-section RC ladder driven by a 1 V step.
func rcDeck(title string, k int, r, c float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\nV1 in 0 STEP 1\n", title)
	prev := "in"
	for i := 1; i <= k; i++ {
		n := "n" + strconv.Itoa(i)
		fmt.Fprintf(&b, "R%d %s %s %s\nC%d %s 0 %s\n", i, prev, n, fmtVal(r), i, n, fmtVal(c))
		prev = n
	}
	b.WriteString(".tran 0.1m 50m\n")
	return b.String()
}

// cpeDeck is a k-section CPE ladder (α = 0.5) with a current pulse into
// its first node and both ends terminated: the circuit of the frac-line
// workload at serving scale.
func cpeDeck(k int, r, c float64) string {
	var b strings.Builder
	b.WriteString("cpe ladder\nI1 0 v1 PULSE 0 1m 0.1n 0.1n 0.1n 0.8n\n")
	for i := 1; i < k; i++ {
		fmt.Fprintf(&b, "Rs%d v%d v%d %s\n", i, i, i+1, fmtVal(r))
	}
	for i := 1; i <= k; i++ {
		fmt.Fprintf(&b, "P%d v%d 0 %s 0.5\n", i, i, fmtVal(c))
	}
	fmt.Fprintf(&b, "Rt1 v1 0 50\nRt2 v%d 0 50\n.tran 1p 2.7n\n", k)
	return b.String()
}

func fmtVal(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// mixServer is one running server and the client that drives it.
type mixServer struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	dials  atomic.Int64
}

func startServer() *mixServer {
	s := &mixServer{srv: serve.New(serve.Config{})}
	s.ts = httptest.NewServer(s.srv)
	dialer := &net.Dialer{}
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     serveConns,
		MaxIdleConnsPerHost: serveConns,
		DisableCompression:  true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			s.dials.Add(1)
			return dialer.DialContext(ctx, network, addr)
		},
	}}
	return s
}

func (s *mixServer) close() {
	s.client.CloseIdleConnections()
	s.ts.Close()
}

// snapshot reads GET /metrics through the handler in process, so polling
// opens no connection of its own.
func (s *mixServer) snapshot() (serve.Snapshot, error) {
	var snap serve.Snapshot
	rec := httptest.NewRecorder()
	s.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		return snap, fmt.Errorf("GET /metrics: status %d", rec.Code)
	}
	return snap, json.Unmarshal(rec.Body.Bytes(), &snap)
}

// jobResult is one request as the client saw it.
type jobResult struct {
	traced                                     bool
	due, sent, header, firstCol, lastCol, done time.Time
	status, cols, bytes                        int
	failure                                    string
	report                                     doneReport
	gapP50US, gapP99US                         float64
	raw                                        [][]byte // column records, kept for the reference check
}

// doneReport mirrors the "done" record's report.
type doneReport struct {
	Factorizations  int    `json:"factorizations"`
	CacheHits       int    `json:"cacheHits"`
	CacheUpdateHits int    `json:"cacheUpdateHits"`
	PencilRefactors int    `json:"pencilRefactors"`
	CacheMisses     int    `json:"cacheMisses"`
	HistoryEngine   string `json:"historyEngine"`
	SparseLUSolves  int    `json:"sparseLUSolves"`
	Degraded        bool   `json:"degraded"`
}

// counters maps the done record onto the solver counters. The service
// always attaches a factor cache, so its update hits are the scenarios the
// SMW update path served.
func (d doneReport) counters() opCounters {
	return opCounters{
		"core.factorizations":     float64(d.Factorizations),
		"core.tier_solves_sparse": float64(d.SparseLUSolves),
		"core.degraded_ops":       boolf(d.Degraded),
		"core.history_fft_ops":    boolf(d.HistoryEngine == string(core.HistoryFFT)),
		"core.history_exact_ops":  boolf(d.HistoryEngine == string(core.HistoryExact)),
		"core.cache_hits":         float64(d.CacheHits),
		"core.cache_misses":       float64(d.CacheMisses),
		"core.pencil_updates":     float64(d.CacheUpdateHits),
		"core.pencil_refactors":   float64(d.PencilRefactors),
	}
}

var (
	headerPrefix = []byte(`{"type":"header"`)
	columnPrefix = []byte(`{"type":"column"`)
	donePrefix   = []byte(`{"type":"done"`)
	errorPrefix  = []byte(`{"type":"error"`)
)

// send posts one job and reads its stream to the end, stamping the first
// column record (every one, traced) as it reads it; kept jobs copy their
// column records.
func (s *mixServer) send(j *serveJob, res *jobResult, keep bool) {
	res.sent = now()
	resp, err := s.client.Post(s.ts.URL+"/v1/solve", "application/json", bytes.NewReader(j.body))
	if err != nil {
		res.failure = err.Error()
		return
	}
	defer resp.Body.Close()
	res.status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		res.failure = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
		return
	}
	var clk colClock
	clk.reset(res.traced, j.req.Steps)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	for sc.Scan() {
		line := sc.Bytes()
		res.bytes += len(line) + 1
		switch {
		case bytes.HasPrefix(line, columnPrefix):
			clk.tick()
			res.cols++
			if keep {
				res.raw = append(res.raw, append([]byte(nil), line...))
			}
		case bytes.HasPrefix(line, headerPrefix):
			res.header = now()
		case bytes.HasPrefix(line, donePrefix):
			res.done = now()
			var rec struct {
				Report doneReport `json:"report"`
			}
			if err := json.Unmarshal(line, &rec); err != nil {
				res.failure = "bad done record: " + err.Error()
			}
			res.report = rec.Report
		case bytes.HasPrefix(line, errorPrefix):
			res.done = now()
			res.failure = string(line)
		default:
			res.failure = "unknown stream record"
		}
	}
	switch {
	case sc.Err() != nil:
		res.failure = sc.Err().Error()
	case res.failure != "":
	case res.done.IsZero():
		res.failure = "stream ended without a done record"
	case res.cols != j.req.Steps:
		res.failure = fmt.Sprintf("streamed %d columns, want %d", res.cols, j.req.Steps)
	}
	res.firstCol = clk.first
	if stamps := clk.enter; len(stamps) > 0 {
		res.lastCol = stamps[len(stamps)-1]
		gaps := make([]float64, 0, len(stamps))
		for k := 1; k < len(stamps); k++ {
			gaps = append(gaps, us(stamps[k].Sub(stamps[k-1])))
		}
		res.gapP50US, res.gapP99US = quantile(gaps, 0.5), quantile(gaps, 0.99)
	}
}

// runServeMix runs the serve-mix workload.
func runServeMix(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	rate := cfg.rate
	if rate <= 0 {
		rate = serveRate
	}
	n := int(math.Round(cfg.seconds * rate))
	if n < 1 {
		n = 1
	}
	if cfg.maxOps > 0 && n > cfg.maxOps {
		n = cfg.maxOps
	}

	// Set-up: draw the schedule, start a server, warm it with one request
	// of each class. Done several times for a steady setup_s; the last
	// server serves the timed phase, and its rc-cold warm-up request is the
	// one the layer probes work on.
	var s *mixServer
	var jobs []serveJob
	var cold serveJob
	var coldRes jobResult
	var setups, gens []float64
	for i := 0; i < cfg.setups(); i++ {
		if s != nil {
			s.close()
		}
		runtime.GC() // each set-up starts from the same clean heap
		t0 := now()
		g := newMixGen(cfg.seed)
		jobs = make([]serveJob, n)
		for k, c := range g.schedule(n) {
			var err error
			if jobs[k], err = g.next(c); err != nil {
				return nil, err
			}
			jobs[k].due = time.Duration(float64(k) / rate * float64(time.Second))
		}
		gen := time.Since(t0)
		s = startServer()
		for c := range serveClasses {
			j, err := g.next(c)
			if err != nil {
				s.close()
				return nil, err
			}
			var res jobResult
			s.send(&j, &res, false)
			if res.failure != "" {
				s.close()
				return nil, fmt.Errorf("warm-up %s: %s", serveClasses[c].name, res.failure)
			}
			if c == rcCold {
				cold, coldRes = j, res
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		gens = append(gens, ms(gen))
	}
	defer s.close()
	o.values["setup_s"] = median(setups)
	o.values["netgen.generate_ms"] = median(gens)

	// The reference check replays the first job of each class offline.
	keep := make([]bool, n)
	firstOf := make([]int, len(serveClasses))
	for c := range firstOf {
		firstOf[c] = -1
	}
	for k := range jobs {
		if c := jobs[k].class; firstOf[c] < 0 {
			firstOf[c] = k
			keep[k] = true
		}
	}

	// The timed phase: two senders take jobs in schedule order and send
	// each at its due time or, when both are busy, as soon as one frees.
	results := make([]jobResult, n)
	for k := range results {
		results[k].traced = cfg.trace && k%2 == 0
	}
	queue := make(chan int, n) // holds the whole schedule, so filling it never blocks
	for k := range jobs {
		queue <- k
	}
	close(queue)
	before, err := s.snapshot()
	if err != nil {
		return nil, err
	}
	var polls []serve.Snapshot
	stopPoll := make(chan struct{})
	var pollWG sync.WaitGroup
	var pollErr error
	if cfg.trace {
		pollWG.Add(1)
		go func() {
			defer pollWG.Done()
			tick := time.NewTicker(250 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopPoll:
					return
				case <-tick.C:
					snap, err := s.snapshot()
					if err != nil {
						pollErr = err
						return
					}
					polls = append(polls, snap)
				}
			}
		}()
	}
	runtime.GC()
	tr := newTracer("serve-mix", cfg.trace)
	mem0 := readMem()
	sampler := startMemSampler()
	start := now()
	var wg sync.WaitGroup
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range queue {
				due := start.Add(jobs[k].due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				results[k].due = due
				s.send(&jobs[k], &results[k], keep[k])
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	o.values["mem_mb"] = sampler.finish()
	mem1 := readMem()
	close(stopPoll)
	pollWG.Wait()
	if pollErr != nil {
		return nil, pollErr
	}
	o.values["runtime.peak_rss_mb"] = peakRSSMB()
	after, err := s.snapshot()
	if err != nil {
		return nil, err
	}

	o.attempted = n
	var lat, ttfc []float64
	classLat := make([][]float64, len(serveClasses))
	cols, good := 0, 0
	for k := range results {
		r := &results[k]
		if r.failure != "" {
			o.failed++
			if len(o.notes) < 10 {
				o.notef("job %d (%s) failed: %s", k, serveClasses[jobs[k].class].name, r.failure)
			}
			continue
		}
		d := r.done.Sub(r.due)
		lat = append(lat, ms(d))
		ttfc = append(ttfc, ms(r.firstCol.Sub(r.due)))
		classLat[jobs[k].class] = append(classLat[jobs[k].class], ms(d))
		cols += r.cols * jobs[k].scen
		if d <= serveGoodLatency {
			good++
		}
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("every serve-mix job failed: %s", results[0].failure)
	}
	o.values["op_mean_ms"] = mean(lat)
	o.values["op_p90_ms"] = quantile(lat, 0.9)
	o.values["op.ttfc_p50_ms"] = quantile(ttfc, 0.5)
	o.values["cols_per_s"] = float64(cols) / wall.Seconds()
	o.notef("job p50 %.4g ms, p99 %.4g ms, time to first column p50 %.4g ms and p99 %.4g ms over %d jobs; goodput %.4g jobs/s within %v",
		median(lat), quantile(lat, 0.99), quantile(ttfc, 0.5), quantile(ttfc, 0.99), len(lat), float64(good)/(float64(n)/rate), serveGoodLatency)
	for c, l := range classLat {
		if len(l) > 0 {
			o.notef("class %s: %d jobs, p50 %.3g ms", serveClasses[c].name, len(l), median(l))
		}
	}

	o.correct = true
	refs, err := verifyServe(o, jobs, results, firstOf)
	if err != nil {
		return nil, fmt.Errorf("reference check: %w", err)
	}
	if !cfg.trace {
		return o, nil
	}

	serveLayerMetrics(o, tr, jobs, results, polls, before, after, int64(s.dials.Load()))
	o.spans = tr.spans
	runtimeMetrics(o, mem0, mem1, n)
	o.values["trace.overhead_pct"] = serveTraceOverhead(s, jobs, firstOf)
	p, err := serveProblem(cold, coldRes.report, refs[rcSweep])
	if err != nil {
		return nil, err
	}
	d, err := timeMedian(probeMinReps, probeBudget, func() error {
		_, _, err := assembleDeck(cold.req.Netlist)
		return err
	})
	if err != nil {
		return nil, err
	}
	o.values["circuit.assemble_ms"] = ms(d)
	if err := probeLayers(p, o.values); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	return o, nil
}

// serveLayerMetrics splits each traced job at the records the client saw:
// lag (due → sent), wait for the header (parse, admission, queue), the
// first column (factorization or cache lookup, column 0), the columns, and
// the tail after the last column.
func serveLayerMetrics(o *outcome, tr *tracer, jobs []serveJob, results []jobResult, polls []serve.Snapshot, before, after serve.Snapshot, dials int64) {
	var first, cols, tail, gapP50, gapP99, wait, lag, bytesOut []float64
	var counters []opCounters
	sent, rejected := 0, 0
	for k := range results {
		r := &results[k]
		if !r.sent.IsZero() {
			sent++
			lag = append(lag, ms(r.sent.Sub(r.due)))
		}
		if r.status == http.StatusTooManyRequests {
			rejected++
		}
		if !r.traced || r.failure != "" {
			continue
		}
		tr.add(k, "op", "", r.due, r.done)
		tr.add(k, "loadgen.lag", "op", r.due, r.sent)
		tr.add(k, "serve.first_byte", "op", r.sent, r.header)
		tr.add(k, "core.first_col", "op", r.header, r.firstCol)
		tr.add(k, "core.cols", "op", r.firstCol, r.lastCol)
		tr.add(k, "core.tail", "op", r.lastCol, r.done)
		wait = append(wait, ms(r.header.Sub(r.due)))
		first = append(first, ms(r.firstCol.Sub(r.header)))
		cols = append(cols, ms(r.lastCol.Sub(r.firstCol)))
		tail = append(tail, ms(r.done.Sub(r.lastCol)))
		gapP50 = append(gapP50, r.gapP50US)
		gapP99 = append(gapP99, r.gapP99US)
		bytesOut = append(bytesOut, float64(r.bytes))
		counters = append(counters, r.report.counters())
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
	v["op.output_bytes"] = mean(bytesOut)
	o.notef("load generator: %d of %d jobs sent, send lag p99 %.3g ms, %d connections", sent, len(results), quantile(lag, 0.99), dials)
	depth, inflight := 0, []float64{}
	for _, p := range polls {
		depth = max(depth, p.QueueDepth)
		inflight = append(inflight, float64(p.InFlight))
	}
	o.notef("server: queue depth max %d, in flight mean %.3g (GET /metrics every 250 ms), %d responses 429", depth, mean(inflight), rejected)
	hitsDelta := after.FactorCache.Hits - before.FactorCache.Hits
	updDelta := after.FactorCache.UpdateHits - before.FactorCache.UpdateHits
	missDelta := after.FactorCache.Misses - before.FactorCache.Misses
	if total := hitsDelta + updDelta + missDelta; total > 0 {
		o.notef("factor cache over the timed phase: %d hits, %d update hits, %d misses (hit ratio %.3f)",
			hitsDelta, updDelta, missDelta, float64(hitsDelta+updDelta)/float64(total))
	}
	o.notef("server-side latency p50 %.3g ms, p99 %.3g ms (GET /metrics)", after.Latency.P50Milli, after.Latency.P99Milli)
}

// verifyServe replays the first job of each class through an offline
// core.SolveBatch built from the same request and requires the streamed
// columns to match it bit for bit. It returns the offline solutions by
// class.
func verifyServe(o *outcome, jobs []serveJob, results []jobResult, firstOf []int) ([][]*core.Solution, error) {
	refs := make([][]*core.Solution, len(serveClasses))
	for c, k := range firstOf {
		if k < 0 || results[k].failure != "" {
			continue
		}
		// Tolerance sweeps: take the path the server's report names. When it
		// split the scenarios between the two paths, the measured crossover
		// cannot be replayed, and the paths agree to 1e-12, not bit for bit.
		rep := results[k].report
		limit := 0
		mixed := rep.CacheUpdateHits > 0 && rep.PencilRefactors > 0
		switch {
		case rep.CacheUpdateHits > 0 && !mixed:
			limit = math.MaxInt32
		case rep.PencilRefactors > 0 && !mixed:
			limit = -1
		}
		sols, err := offlineBatch(jobs[k].req, limit)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", serveClasses[c].name, err)
		}
		refs[c] = sols
		mismatch, worst := 0, 0.0
		for j, line := range results[k].raw {
			var rec struct {
				J int         `json:"j"`
				X [][]float64 `json:"x"`
			}
			if err := json.Unmarshal(line, &rec); err != nil {
				return nil, err
			}
			if rec.J != j || len(rec.X) != len(sols) {
				return nil, fmt.Errorf("%s: column record %d is malformed", serveClasses[c].name, j)
			}
			for s, sol := range sols {
				x := sol.Coefficients()
				got := rec.X[s]
				want := make([]float64, len(got))
				for i := range want {
					want[i] = x.Row(i)[j]
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						mismatch++
					}
				}
				worst = math.Max(worst, relDiff(got, want))
			}
		}
		o.notef("reference %s: %d values differ from offline SolveBatch (max_rel_err %.3g)", serveClasses[c].name, mismatch, worst)
		if mismatch > 0 && !(mixed && worst <= 1e-12) {
			o.correct = false
		}
	}
	return refs, nil
}

// offlineBatch solves a request the way the service does, through the
// public packages: parse, assemble, one scenario per sweep point (scaled
// inputs, tolerance draws stamped as pencil deltas), SolveBatch with one
// solve worker.
func offlineBatch(req serve.Request, limit int) ([]*core.Solution, error) {
	deck, mna, err := assembleDeck(req.Netlist)
	if err != nil {
		return nil, err
	}
	var T float64
	if req.TStop != nil {
		T = req.TStop.V
	} else {
		T = deck.Tran.Stop // the benchmark's decks all carry a .tran card
	}
	count, lo, hi, tol, seed, elems := 1, 1.0, 1.0, 0.0, uint64(1), 0
	if sw := req.Sweep; sw != nil {
		if sw.Count > 0 {
			count = sw.Count
		}
		if sw.Lo != nil {
			lo = sw.Lo.V
		}
		hi = lo
		if sw.Hi != nil {
			hi = sw.Hi.V
		}
		if sw.Tol != nil {
			tol = sw.Tol.V
		}
		if sw.Seed != 0 {
			seed = sw.Seed
		}
		elems = sw.Elements
	}
	names := netgen.PerturbableElements(deck.Netlist, elems)
	scs := make([]core.Scenario, count)
	for s := range scs {
		scale := lo
		if count > 1 {
			scale = lo + (hi-lo)*float64(s)/float64(count-1)
		}
		u := make([]waveform.Signal, len(mna.Inputs))
		for i, base := range mna.Inputs {
			base, scale := base, scale
			u[i] = func(t float64) float64 { return scale * base(t) }
		}
		scs[s] = core.Scenario{U: u}
		if tol > 0 && s > 0 {
			perts, err := netgen.MonteCarloPerturb(deck.Netlist, names, seed, s, tol)
			if err != nil {
				return nil, err
			}
			d, err := deck.Netlist.StampDelta(mna, perts)
			if err != nil {
				return nil, err
			}
			if d.Rank() > 0 {
				scs[s].Delta = d
			}
		}
	}
	hist, err := core.ParseHistoryMode(req.History)
	if err != nil {
		return nil, err
	}
	return core.SolveBatch(mna.Sys, scs, req.Steps, T, core.BatchOptions{
		Options:         core.Options{Workers: 1, HistoryMode: hist},
		UpdateRankLimit: limit,
	})
}

// serveTraceOverhead measures what client-side tracing costs a job: the
// first job of each class is sent again, untraced then traced, one at a
// time, so queueing behind other jobs cannot pass for tracing cost. It
// returns the median over all pairs of the traced latency against the
// untraced one, in percent.
func serveTraceOverhead(s *mixServer, jobs []serveJob, firstOf []int) float64 {
	const pairs = 12
	var ratios []float64
	for _, k := range firstOf {
		if k < 0 {
			continue
		}
		for rep := 0; rep <= pairs; rep++ {
			var lat [2]float64
			ok := true
			for side, traced := range []bool{false, true} {
				res := jobResult{traced: traced}
				t0 := now()
				s.send(&jobs[k], &res, false)
				lat[side] = ms(time.Since(t0))
				ok = ok && res.failure == ""
			}
			if rep > 0 && ok { // the first pair warms the cache
				ratios = append(ratios, lat[1]/lat[0])
			}
		}
	}
	return overheadPct(ratios)
}

// assembleDeck is the service's assembly step for one request: parse the
// deck and build its MNA model.
func assembleDeck(text string) (*circuit.Deck, *circuit.MNA, error) {
	deck, err := circuit.Parse(strings.NewReader(text))
	if err != nil {
		return nil, nil, err
	}
	mna, err := deck.Netlist.MNA()
	return deck, mna, err
}

// serveProblem points the layer probes at an rc-cold request, the class
// that factors on every request, factored with the tier its done record
// says served it. The basis probe expands α = 0.5 at the cpe-fft grid, and
// the envelope probe folds the rc-sweep reference solutions, or the cold
// request solved offline when the run had no rc-sweep job.
func serveProblem(cold serveJob, rep doneReport, sweep []*core.Solution) (problem, error) {
	if rep.SparseLUSolves == 0 {
		return problem{}, fmt.Errorf("the rc-cold request made no sparse LU solves, the only tier its done record names")
	}
	if len(sweep) == 0 {
		var err error
		if sweep, err = offlineBatch(cold.req, 0); err != nil {
			return problem{}, err
		}
	}
	deck, mna, err := assembleDeck(cold.req.Netlist)
	if err != nil {
		return problem{}, err
	}
	p := problem{sys: mna.Sys, m: cold.req.Steps, T: deck.Tran.Stop, alpha: 0.5, basisM: 2048,
		netlist: deck.Netlist, model: mna, tier: core.TierSparseLU}
	for _, sol := range sweep {
		p.samples = append(p.samples, sol.Coefficients())
	}
	return p, nil
}
