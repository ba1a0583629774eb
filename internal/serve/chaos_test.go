package serve

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"opmsim/internal/core"
)

// TestChaosKillRestartSoak is the chaos harness: N concurrent clients stream
// fractional solves while the server is repeatedly "killed" (drained and torn
// down mid-flight) and restarted over the same journal directory. Every
// client must eventually hold the complete waveform, bitwise-identical to the
// offline solve, by resuming across restarts — and the run must neither hang,
// leak goroutines, nor orphan queue slots or journals. Run it under -race;
// the CI chaos job does.
func TestChaosKillRestartSoak(t *testing.T) {
	clients, kills := 40, 3
	if testing.Short() {
		clients, kills = 8, 1
	}
	const steps = 96
	dir := t.TempDir()
	baseGoroutines := runtime.NumGoroutine()

	// Offline references, one per engine; every client checks against one.
	bodies := map[string]string{
		"exact": resumeBody(supercapDeck, steps, "exact"),
		"fft":   resumeBody(supercapDeck, steps, "fft"),
	}
	refs := map[string][]*core.Solution{}
	jobs := map[string]*job{}
	for mode, body := range bodies {
		j, sols := offlineColumns(t, body)
		refs[mode], jobs[mode] = sols, j
	}

	// current holds the live test server; restart() swaps it. Clients load it
	// on every attempt, so a kill strands at most one in-flight request each.
	var current atomic.Pointer[httptest.Server]
	newServer := func() *httptest.Server {
		srv := New(Config{Workers: 4, CheckpointEvery: 4, JournalDir: dir, QueueDepth: clients})
		srv.columnHook = func(string, int) { time.Sleep(time.Millisecond) }
		return httptest.NewServer(srv)
	}
	current.Store(newServer())
	defer func() { current.Load().Close() }()

	deadline := time.Now().Add(90 * time.Second)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		mode := "exact"
		if c%2 == 1 {
			mode = "fft"
		}
		wg.Add(1)
		go func(c int, mode string) {
			defer wg.Done()
			body := bodies[mode]
			var got []columnRecord
			jobID := ""
			for time.Now().Before(deadline) && len(got) < steps {
				ts := current.Load()
				var resp *http.Response
				var err error
				if jobID == "" {
					resp, err = ts.Client().Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
				} else {
					rb := fmt.Sprintf(`{"job": %q, "from": %d}`, jobID, len(got))
					resp, err = ts.Client().Post(ts.URL+"/v1/resume", "application/json", strings.NewReader(rb))
				}
				if err != nil {
					time.Sleep(10 * time.Millisecond) // server mid-restart
					continue
				}
				switch resp.StatusCode {
				case http.StatusOK:
				case http.StatusNotFound:
					resp.Body.Close()
					jobID = "" // job lost; resubmit (bitwise identity makes this safe)
					continue
				case http.StatusConflict, http.StatusServiceUnavailable, http.StatusTooManyRequests:
					resp.Body.Close()
					time.Sleep(10 * time.Millisecond)
					continue
				default:
					resp.Body.Close()
					errs <- fmt.Errorf("client %d: unexpected status %d", c, resp.StatusCode)
					return
				}
				hdr, cols, errRec, done := readStream(t, resp, nil, 0)
				if hdr != nil && hdr.Job != "" {
					jobID = hdr.Job
				}
				for _, col := range cols {
					if col.J == len(got) {
						got = append(got, col)
					}
				}
				if errRec != nil && errRec.Resumable && errRec.Job != "" {
					jobID = errRec.Job
				}
				if done && len(got) != steps {
					errs <- fmt.Errorf("client %d: done with %d/%d columns", c, len(got), steps)
					return
				}
			}
			if len(got) != steps {
				errs <- fmt.Errorf("client %d: soak deadline with %d/%d columns", c, len(got), steps)
				return
			}
			// Bitwise check against the offline reference.
			job, sols := jobs[mode], refs[mode]
			for j, col := range got {
				for s := range sols {
					x := sols[s].Coefficients()
					for k, i := range job.stateIdx {
						if math.Float64bits(col.X[s][k]) != math.Float64bits(x.At(i, j)) {
							errs <- fmt.Errorf("client %d (%s): scenario %d state %d column %d bits diverged",
								c, mode, s, k, j)
							return
						}
					}
				}
			}
		}(c, mode)
	}

	// The killer: drain + tear down the live server, boot a replacement over
	// the same journal directory, repeat.
	killerDone := make(chan struct{})
	go func() {
		defer close(killerDone)
		for k := 0; k < kills; k++ {
			time.Sleep(time.Duration(150+100*k) * time.Millisecond)
			old := current.Load()
			srv := old.Config.Handler.(*Server)
			dctx, dcancel := context.WithTimeout(context.Background(), 15*time.Second)
			err := srv.Drain(dctx)
			dcancel()
			if err != nil {
				errs <- fmt.Errorf("kill %d: drain did not unwind in bound: %v", k, err)
			}
			replacement := newServer()
			current.Store(replacement)
			old.CloseClientConnections()
			old.Close()
		}
	}()

	wg.Wait()
	<-killerDone
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// No orphaned queue slot: a fresh job on the final server still completes.
	ts := current.Load()
	res := submit(t, ts.Client(), ts.URL, solveBody(tinyDeck, 16, 1, 1, 1, ""))
	if res.done == nil {
		t.Fatalf("post-soak health solve did not complete: %+v %s", res.errRec, res.rawErr)
	}

	// Every job completed, so recovery retired every journal.
	leftover, err := filepath.Glob(filepath.Join(dir, "*"+journalExt))
	if err != nil {
		t.Fatal(err)
	}
	if len(leftover) != 0 {
		var names []string
		for _, p := range leftover {
			if fi, err := os.Stat(p); err == nil {
				names = append(names, fmt.Sprintf("%s(%dB)", filepath.Base(p), fi.Size()))
			}
		}
		t.Fatalf("journal directory still holds %d journals after the soak: %v", len(leftover), names)
	}

	// No goroutine leak: after the servers quiesce the count returns to the
	// neighborhood of the baseline (HTTP keep-alive reapers need a moment).
	deadlineG := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadlineG) {
		if runtime.NumGoroutine() <= baseGoroutines+10 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseGoroutines+10 {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutine leak: %d now vs %d at start\n%s", g, baseGoroutines, buf[:runtime.Stack(buf, true)])
	}
}

// journals lists the journal files in dir.
func journals(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*"+journalExt))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// serveDirect runs one request through srv's handler on the calling
// goroutine and returns the recorded response: no connection, so the
// "client" reads nothing until the handler has returned.
func serveDirect(srv *Server, path, body string) *http.Response {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec.Result()
}

// TestChaosDrainBeforeHeaderRead pins the soak's orphaned-journal sequence
// deterministically: a drain lands after the queue has admitted a job and
// before its client has read the stream header.
//
//   - Drained before the job starts: Drain has already seen no job running
//     and returned, so the job must not start at all. It is refused with 503
//     and leaves no journal; before the fix it journaled a job whose client,
//     its connection torn down, never learned the id, and every restart
//     re-adopted it as suspended with nobody to resume it.
//   - Drained after the job is registered: Drain waits for it, the stream
//     still carries the job id, and a server restarted over the journal
//     directory resumes it to the offline bits and retires the journal.
func TestChaosDrainBeforeHeaderRead(t *testing.T) {
	body := resumeBody(supercapDeck, 48, "fft")
	drain := func(t *testing.T, srv *Server) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Fatalf("drain: %v", err)
		}
	}

	t.Run("before start", func(t *testing.T) {
		dir := t.TempDir()
		srv := New(Config{Workers: 2, CheckpointEvery: 4, JournalDir: dir})
		srv.admitHook = func() { drain(t, srv) }
		resp := serveDirect(srv, "/v1/solve", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("job admitted across a drain answered %d, want 503", resp.StatusCode)
		}
		if left := journals(t, dir); len(left) != 0 {
			t.Fatalf("refused job left journals %v", left)
		}
		if n := len(New(Config{JournalDir: dir}).reg.summaries()); n != 0 {
			t.Fatalf("restart recovered %d jobs, want none", n)
		}
	})

	t.Run("after registration", func(t *testing.T) {
		dir := t.TempDir()
		job, sols := offlineColumns(t, body)
		srvA := New(Config{Workers: 2, CheckpointEvery: 4, JournalDir: dir})
		drained := make(chan error, 1)
		var once sync.Once
		srvA.columnHook = func(_ string, col int) {
			once.Do(func() {
				go func() {
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					defer cancel()
					drained <- srvA.Drain(ctx)
				}()
				<-srvA.drainCtx.Done()
			})
		}
		hdr, cols, errRec, done := readStream(t, serveDirect(srvA, "/v1/solve", body), nil, 0)
		if err := <-drained; err != nil {
			t.Fatalf("drain: %v", err)
		}
		if done {
			t.Fatal("the drained solve reported done")
		}
		id := ""
		if hdr != nil {
			id = hdr.Job
		}
		if errRec == nil || !errRec.Resumable || errRec.Job != id || id == "" {
			t.Fatalf("drained stream: header %+v, trailer %+v; want the job id in both", hdr, errRec)
		}
		if len(journals(t, dir)) != 1 {
			t.Fatalf("drained job left journals %v, want one", journals(t, dir))
		}

		srvB := New(Config{Workers: 2, CheckpointEvery: 4, JournalDir: dir})
		rb := fmt.Sprintf(`{"job": %q, "from": %d}`, id, len(cols))
		_, rest, errRec, done := readStream(t, serveDirect(srvB, "/v1/resume", rb), nil, 0)
		if errRec != nil || !done {
			t.Fatalf("resume ended with %+v, done=%v", errRec, done)
		}
		checkCombined(t, job, sols, append(cols, rest...), 48)
		if left := journals(t, dir); len(left) != 0 {
			t.Fatalf("completed job left journals %v", left)
		}
	})
}
