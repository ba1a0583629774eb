package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"opmsim/internal/core"
	"opmsim/internal/faultinject"
)

// The resume conformance suite is the tentpole acceptance test: a solve
// interrupted in any of the supported ways — client disconnect, server drain
// (with a process "restart" recovering the journal), injected solver fault —
// and then resumed must deliver, across the original and resumed streams
// combined, exactly the columns an uninterrupted offline SolveBatch produces,
// Float64bits-identical, for both fractional-history engines.

// resumeFixtures mirrors the streaming-conformance decks.
var resumeFixtures = []struct {
	name  string
	deck  string
	steps int
}{
	{"quickstart", quickstartDeck, 96},
	{"supercap", supercapDeck, 120},
	{"powergrid", powergridDeck, 96},
}

// resumeBody builds the submission for one fixture and engine.
func resumeBody(deck string, steps int, mode string) string {
	return `{"netlist": ` + strconv.Quote(deck) +
		`, "steps": ` + strconv.Itoa(steps) +
		`, "history": "` + mode + `"` +
		`, "sweep": {"count": 2, "lo": 0.5, "hi": 1.5}}`
}

// offlineColumns solves the job offline and returns the reference waveform
// indexed [scenario][state][column].
func offlineColumns(t *testing.T, body string) (*job, []*core.Solution) {
	t.Helper()
	cfg := Config{}.withDefaults()
	job, rerr := parseRequest([]byte(body), &cfg)
	if rerr != nil {
		t.Fatal(rerr)
	}
	sols, err := core.SolveBatchCtx(context.Background(), job.mna.Sys, job.scenarios, job.m, job.T,
		core.BatchOptions{Options: core.Options{Workers: 1, HistoryMode: job.history}})
	if err != nil {
		t.Fatal(err)
	}
	return job, sols
}

// checkCombined asserts the combined column set covers [0, steps) exactly and
// matches the offline reference bit for bit.
func checkCombined(t *testing.T, job *job, sols []*core.Solution, cols []columnRecord, steps int) {
	t.Helper()
	if len(cols) != steps {
		t.Fatalf("combined stream carries %d columns, want %d", len(cols), steps)
	}
	h := job.T / float64(job.m)
	for j, col := range cols {
		if col.J != j {
			t.Fatalf("combined column %d carries index %d", j, col.J)
		}
		tj := (float64(j) + 0.5) * h
		if math.Float64bits(col.T) != math.Float64bits(tj) {
			t.Fatalf("column %d: t=%x, offline %x", j, math.Float64bits(col.T), math.Float64bits(tj))
		}
		for s := range sols {
			x := sols[s].Coefficients()
			for k, i := range job.stateIdx {
				got, want := col.X[s][k], x.At(i, j)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("scenario %d state %s column %d: resumed stream %x (%g), offline %x (%g)",
						s, job.labels[k], j, math.Float64bits(got), got, math.Float64bits(want), want)
				}
			}
		}
	}
}

// readStreamUntil reads NDJSON records from the response, appending columns
// to out, until stop returns true (then cancels ctx and drains) or the
// stream ends. It returns the header, terminal error record (if any), and
// whether a done record arrived.
func readStream(t *testing.T, resp *http.Response, cancel context.CancelFunc, stopAfter int) (hdr *headerRecord, cols []columnRecord, errRec *errorRecord, done bool) {
	t.Helper()
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Bytes()
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("stream line is not JSON: %v (%q)", err, line)
		}
		switch probe.Type {
		case "header":
			hdr = &headerRecord{}
			if err := json.Unmarshal(line, hdr); err != nil {
				t.Fatal(err)
			}
		case "column":
			var c columnRecord
			if err := json.Unmarshal(line, &c); err != nil {
				t.Fatal(err)
			}
			// Deep-copy: the decoder reuses backing arrays across lines.
			cc := columnRecord{Type: c.Type, J: c.J, T: c.T, X: make([][]float64, len(c.X))}
			for s := range c.X {
				cc.X[s] = append([]float64(nil), c.X[s]...)
			}
			cols = append(cols, cc)
			if stopAfter > 0 && len(cols) >= stopAfter && cancel != nil {
				cancel()
				return
			}
		case "done":
			done = true
		case "error":
			errRec = &errorRecord{}
			if err := json.Unmarshal(line, errRec); err != nil {
				t.Fatal(err)
			}
		}
	}
	return
}

// resumeStream POSTs /v1/resume, retrying while the job is still attached to
// the dying first stream, and reads the whole resumed stream.
func resumeStream(t *testing.T, client *http.Client, url, jobID string, from int) (*headerRecord, []columnRecord, *errorRecord, bool) {
	t.Helper()
	body := fmt.Sprintf(`{"job": %q, "from": %d}`, jobID, from)
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Post(url+"/v1/resume", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			hdr, cols, errRec, done := readStream(t, resp, nil, 0)
			return hdr, cols, errRec, done
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict || time.Now().After(deadline) {
			t.Fatalf("resume status = %d", resp.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestResumeAfterDisconnectBitwise interrupts the stream by cancelling the
// client request mid-solve, then resumes by job ID and requires the combined
// stream to match the offline solve bit for bit. Once every subtest's server
// is closed, no goroutine may be left behind, here and in the two tests
// below (the drain and solver-error paths).
func TestResumeAfterDisconnectBitwise(t *testing.T) {
	base := goroutineBaseline(t)
	t.Cleanup(func() { settleGoroutines(t, base) })
	for _, fx := range resumeFixtures {
		fx := fx
		for _, mode := range []string{"exact", "fft"} {
			mode := mode
			t.Run(fx.name+"/"+mode, func(t *testing.T) {
				t.Parallel()
				body := resumeBody(fx.deck, fx.steps, mode)
				job, sols := offlineColumns(t, body)

				srv := New(Config{Workers: 2, CheckpointEvery: 8})
				// Pace the solve so the disconnect lands mid-run.
				srv.columnHook = func(string, int) { time.Sleep(200 * time.Microsecond) }
				ts := httptest.NewServer(srv)
				defer ts.Close()

				cut := fx.steps / 3
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/solve", strings.NewReader(body))
				resp, err := ts.Client().Do(req)
				if err != nil {
					t.Fatal(err)
				}
				hdr, got, _, _ := readStream(t, resp, cancel, cut)
				if hdr == nil || hdr.Job == "" {
					t.Fatal("first stream has no header job ID")
				}
				if len(got) < cut {
					t.Fatalf("received %d columns before disconnect, want >= %d", len(got), cut)
				}

				rh, rest, errRec, done := resumeStream(t, ts.Client(), ts.URL, hdr.Job, len(got))
				if errRec != nil {
					t.Fatalf("resumed stream ended in error: %s (%s)", errRec.Error, errRec.Kind)
				}
				if !done {
					t.Fatal("resumed stream has no done record")
				}
				if rh.From != len(got) {
					t.Fatalf("resumed header from = %d, want %d", rh.From, len(got))
				}
				checkCombined(t, job, sols, append(got, rest...), fx.steps)
			})
		}
	}
}

// TestResumeAfterDrainRestartBitwise drains the server mid-solve (SIGTERM
// path), boots a fresh Server over the same journal directory — the process
// restart — and resumes the recovered job on it.
func TestResumeAfterDrainRestartBitwise(t *testing.T) {
	base := goroutineBaseline(t)
	t.Cleanup(func() { settleGoroutines(t, base) })
	for _, fx := range resumeFixtures {
		fx := fx
		for _, mode := range []string{"exact", "fft"} {
			mode := mode
			t.Run(fx.name+"/"+mode, func(t *testing.T) {
				t.Parallel()
				drainRestartResume(t, resumeBody(fx.deck, fx.steps, mode), fx.steps)
			})
		}
	}
}

// cpeLadderDeck is a six-node CPE ladder (α = 0.5): a fractional pencil
// large enough for the crossover rule to admit rank-2 SMW updates.
const cpeLadderDeck = `cpe ladder
I1 0 v1 STEP 1m
Rs1 v1 v2 50
Rs2 v2 v3 50
Rs3 v3 v4 50
Rs4 v4 v5 50
Rs5 v5 v6 50
P1 v1 0 1n 0.5
P2 v2 0 1n 0.5
P3 v3 0 1n 0.5
P4 v4 0 1n 0.5
P5 v5 0 1n 0.5
P6 v6 0 1n 0.5
Rt v6 0 50
.tran 1u 40u
`

// TestResumeToleranceSweepAfterDrainRestartBitwise is the drain-and-restart
// resume for component-tolerance sweeps: their scenarios perturb the pencil
// and run on the parameter-varying engine, over the SMW update path (two
// perturbed elements) and the refactor path (every element), on the
// integer-order quickstart ladder and on a CPE ladder under both history
// engines. The combined stream must match the offline solve bit for bit.
func TestResumeToleranceSweepAfterDrainRestartBitwise(t *testing.T) {
	base := goroutineBaseline(t)
	t.Cleanup(func() { settleGoroutines(t, base) })
	for _, fx := range []struct {
		name  string
		deck  string
		steps int
		modes []string
	}{
		{"quickstart", quickstartDeck, 96, []string{"auto"}},
		{"cpe-ladder", cpeLadderDeck, 120, []string{"exact", "fft"}},
	} {
		fx := fx
		for _, mode := range fx.modes {
			for _, path := range []struct{ name, elements string }{{"smw", `, "elements": 2`}, {"refactor", ""}} {
				mode, path := mode, path
				t.Run(fx.name+"/"+mode+"/"+path.name, func(t *testing.T) {
					t.Parallel()
					body := `{"netlist": ` + strconv.Quote(fx.deck) + `, "steps": ` + strconv.Itoa(fx.steps) +
						`, "history": "` + mode + `", "sweep": {"count": 5, "tol": 0.1, "seed": 3` + path.elements + `}}`
					drainRestartResume(t, body, fx.steps)
				})
			}
		}
	}
}

// drainRestartResume submits body to a journaling server, drains it once a
// third of the columns have streamed, recovers the journal on a fresh server
// and resumes there; the combined stream must match the offline solve bit for
// bit.
func drainRestartResume(t *testing.T, body string, steps int) {
	t.Helper()
	job, sols := offlineColumns(t, body)
	dir := t.TempDir()

	srvA := New(Config{Workers: 2, CheckpointEvery: 8, JournalDir: dir})
	reached := make(chan struct{})
	var once atomic.Bool
	cut := steps / 3
	srvA.columnHook = func(_ string, col int) {
		if col >= cut && once.CompareAndSwap(false, true) {
			close(reached)
		}
		time.Sleep(200 * time.Microsecond)
	}
	tsA := httptest.NewServer(srvA)
	defer tsA.Close()

	type firstStream struct {
		hdr    *headerRecord
		cols   []columnRecord
		errRec *errorRecord
	}
	firstCh := make(chan firstStream, 1)
	go func() {
		resp, err := tsA.Client().Post(tsA.URL+"/v1/solve", "application/json", strings.NewReader(body))
		if err != nil {
			firstCh <- firstStream{}
			return
		}
		hdr, cols, errRec, _ := readStream(t, resp, nil, 0)
		firstCh <- firstStream{hdr, cols, errRec}
	}()

	<-reached
	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if err := srvA.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	first := <-firstCh
	if first.hdr == nil || first.hdr.Job == "" {
		t.Fatal("first stream has no header job ID")
	}
	if first.errRec == nil || !first.errRec.Resumable || first.errRec.Kind != "draining" {
		t.Fatalf("drain trailer = %+v, want resumable kind=draining", first.errRec)
	}
	tsA.Close()

	// "Restart": a new Server recovers the journal directory, checkpoint
	// included.
	srvB := New(Config{Workers: 2, CheckpointEvery: 8, JournalDir: dir})
	if e := srvB.reg.lookup(first.hdr.Job); e == nil || e.cp == nil || e.cp.Columns < cut {
		t.Fatalf("recovered job %q carries no checkpoint through column %d", first.hdr.Job, cut)
	}
	tsB := httptest.NewServer(srvB)
	defer tsB.Close()

	from := len(first.cols)
	rh, rest, errRec, done := resumeStream(t, tsB.Client(), tsB.URL, first.hdr.Job, from)
	if errRec != nil {
		t.Fatalf("resumed stream ended in error: %s (%s)", errRec.Error, errRec.Kind)
	}
	if !done {
		t.Fatal("resumed stream has no done record")
	}
	if rh.From != from && from != 0 {
		t.Fatalf("resumed header from = %d, want %d", rh.From, from)
	}
	checkCombined(t, job, sols, append(first.cols, rest...), steps)
}

// TestResumeAfterInjectedFaultBitwise fails the solve once with an injected
// NaN (a one-shot fault), checks the typed resumable error trailer, resumes,
// and requires bitwise identity with the offline solve.
func TestResumeAfterInjectedFaultBitwise(t *testing.T) {
	base := goroutineBaseline(t)
	t.Cleanup(func() { settleGoroutines(t, base) })
	for _, fx := range resumeFixtures {
		fx := fx
		for _, mode := range []string{"exact", "fft"} {
			mode := mode
			t.Run(fx.name+"/"+mode, func(t *testing.T) {
				t.Parallel()
				body := resumeBody(fx.deck, fx.steps, mode)
				job, sols := offlineColumns(t, body)

				failCol := fx.steps * 3 / 5
				var fired atomic.Bool
				fault := &faultinject.Hooks{CorruptColumn: func(col int, x []float64) {
					if col == failCol && fired.CompareAndSwap(false, true) {
						x[0] = math.NaN()
					}
				}}
				srv := New(Config{Workers: 2, CheckpointEvery: 8, Fault: fault})
				ts := httptest.NewServer(srv)
				defer ts.Close()

				resp, err := ts.Client().Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				hdr, got, errRec, _ := readStream(t, resp, nil, 0)
				if errRec == nil || errRec.Kind != "non-finite" || !errRec.Resumable {
					t.Fatalf("fault trailer = %+v, want resumable kind=non-finite", errRec)
				}
				if len(got) != failCol {
					t.Fatalf("received %d columns before the fault, want %d", len(got), failCol)
				}
				if errRec.NextColumn != failCol {
					t.Fatalf("trailer nextColumn = %d, want %d", errRec.NextColumn, failCol)
				}

				rh, rest, rErr, done := resumeStream(t, ts.Client(), ts.URL, hdr.Job, errRec.NextColumn)
				if rErr != nil {
					t.Fatalf("resumed stream ended in error: %s (%s)", rErr.Error, rErr.Kind)
				}
				if !done {
					t.Fatal("resumed stream has no done record")
				}
				if rh.From != errRec.NextColumn {
					t.Fatalf("resumed header from = %d, want %d", rh.From, errRec.NextColumn)
				}
				checkCombined(t, job, sols, append(got, rest...), fx.steps)
			})
		}
	}
}

// TestResumeReplayFailureEndsStream resumes a job whose checkpoint can no
// longer rebuild its columns. The replay failure latches in the stream
// writer behind the header: the stream ends there, every line written is
// valid JSON, and the handler leaves no goroutine behind.
func TestResumeReplayFailureEndsStream(t *testing.T) {
	base := goroutineBaseline(t)
	srv := New(Config{Workers: 1, CheckpointEvery: 4})
	srv.columnHook = func(string, int) { time.Sleep(200 * time.Microsecond) }
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/solve",
		strings.NewReader(solveBody(tinyDeck, 256, 2, 0.5, 1.5, "")))
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	hdr, got, _, _ := readStream(t, resp, cancel, 64)
	if hdr == nil || len(got) < 64 {
		t.Fatalf("first stream: header %v, %d columns", hdr, len(got))
	}
	// Once the first handler has suspended the job, break its checkpoint: no
	// scenario is within it any more, so replaying column 0 fails (and so
	// does the solve's own checkpoint validation).
	entry := srv.reg.lookup(hdr.Job)
	waitFor(t, func() bool { return srv.reg.attach(entry) == nil })
	entry.mu.Lock()
	if entry.cp == nil || entry.cp.Columns == 0 {
		entry.mu.Unlock()
		t.Fatal("suspended job holds no checkpoint")
	}
	entry.cp.K = 0
	entry.mu.Unlock()
	srv.reg.detach(entry)

	resp, err = ts.Client().Post(ts.URL+"/v1/resume", "application/json",
		strings.NewReader(fmt.Sprintf(`{"job": %q, "from": 0}`, hdr.Job)))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("resume: status %d, %v", resp.StatusCode, err)
	}
	lines := strings.SplitAfter(string(body), "\n")
	if len(lines) != 2 || lines[1] != "" || !json.Valid([]byte(lines[0])) ||
		!strings.HasPrefix(lines[0], `{"type":"header"`) {
		t.Fatalf("resumed stream = %q, want only the header record", body)
	}
	ts.Close()
	settleGoroutines(t, base)
}
