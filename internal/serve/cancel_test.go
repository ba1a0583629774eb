package serve

import (
	"bufio"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"opmsim/internal/core"
)

// tinyDeckBody is tinyDeck without its title line, for tests that need
// distinguishable job titles over the same circuit.
const tinyDeckBody = `V1 in 0 STEP 1
R1 in n1 1k
C1 n1 0 1u
R2 n1 n2 1k
C2 n2 0 1u
.tran 1m 16m
`

// goroutineBaseline counts the goroutines running before a test starts its
// servers. It first runs a batch solve, so core's process-wide history pool,
// which starts on first use and stays, is already part of the count.
func goroutineBaseline(t *testing.T) int {
	t.Helper()
	offlineColumns(t, solveBody(tinyDeck, 8, 2, 0.5, 1.5, ""))
	return runtime.NumGoroutine()
}

// settleGoroutines waits for the goroutine count to fall back to base (see
// goroutineBaseline). Run after the servers are closed, it proves no handler
// — and no stream writer goroutine, which its handler joins — outlived the
// test's jobs.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	for i := 0; i < 500; i++ {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Fatalf("%d goroutines still running, %d before the test:\n%s",
		runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
}

// TestClientDisconnectCancelsJob covers the mid-stream cancellation contract:
// a client that walks away after a few columns must cancel the solve at the
// next column boundary (context.Canceled → core.ErrCancelled), release its
// worker slot, drain the queue back to zero, and leave the cancellation
// recorded in the job's SolveReport. Neither the cancelled job nor the
// completed one after it may leave a goroutine behind.
func TestClientDisconnectCancelsJob(t *testing.T) {
	base := goroutineBaseline(t)
	srv := New(Config{Workers: 1, QueueDepth: 4})
	// Pace the solve so the client reliably disconnects mid-stream: without
	// this, a 2048-column solve of a 3-state ladder finishes in microseconds.
	srv.columnHook = func(string, int) { time.Sleep(2 * time.Millisecond) }
	doneCh := make(chan Done, 4)
	srv.OnJobDone = func(d Done) { doneCh <- d }
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	body := solveBody(tinyDeck, 2048, 2, 0.5, 1.5, "")
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/solve",
		strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}

	// Read a handful of column records to prove the stream was live, then
	// hang up mid-stream.
	rd := bufio.NewReader(resp.Body)
	for i := 0; i < 5; i++ {
		if _, err := rd.ReadBytes('\n'); err != nil {
			t.Fatalf("reading stream line %d: %v", i, err)
		}
	}
	cancel()

	var d Done
	select {
	case d = <-doneCh:
	case <-time.After(15 * time.Second):
		t.Fatal("job did not finish after client disconnect")
	}
	if !errors.Is(d.Err, core.ErrCancelled) {
		t.Fatalf("job error = %v, want core.ErrCancelled", d.Err)
	}
	if d.Report == nil || !errors.Is(d.Report.Err, core.ErrCancelled) {
		t.Fatalf("SolveReport.Err = %v, want core.ErrCancelled", d.Report.Err)
	}
	if d.Columns <= 0 || d.Columns >= 2048 {
		t.Fatalf("columns streamed = %d, want mid-stream (0 < c < 2048)", d.Columns)
	}

	// The worker slot must come back: metrics drain to idle...
	waitFor(t, func() bool {
		snap := scrapeMetrics(t, client, ts.URL)
		return snap.InFlight == 0 && snap.QueueDepth == 0 && snap.Cancelled == 1
	})
	// ...and a fresh job must run to completion on the freed slot.
	srv.columnHook = nil
	res := submit(t, client, ts.URL, solveBody(tinyDeck, 16, 1, 1, 1, ""))
	if res.status != http.StatusOK || res.done == nil {
		t.Fatalf("post-cancel job: status=%d done=%v err=%v", res.status, res.done, res.errRec)
	}
	<-doneCh // drain the second job's notification

	snap := scrapeMetrics(t, client, ts.URL)
	if snap.Cancelled != 1 || snap.Completed != 1 {
		t.Fatalf("metrics: cancelled=%d completed=%d, want 1/1", snap.Cancelled, snap.Completed)
	}
	ts.Close()
	settleGoroutines(t, base)
}

// TestQueuedClientDisconnectFreesQueueSlot covers cancellation while still
// waiting for admission: the waiter leaves the queue, nothing runs, and the
// queue depth returns to zero.
func TestQueuedClientDisconnectFreesQueueSlot(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4})
	block := make(chan struct{})
	started := make(chan struct{}, 2)
	srv.columnHook = func(title string, col int) {
		if title == "blocker" && col == 0 {
			started <- struct{}{}
			<-block
		}
	}
	var titles []string
	titleCh := make(chan string, 4)
	srv.OnJobDone = func(d Done) { titleCh <- d.Title }
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	blockerDeck := "blocker\n" + tinyDeckBody
	go func() {
		if _, err := submitErr(client, ts.URL, solveBody(blockerDeck, 8, 1, 1, 1, "")); err != nil {
			t.Error(err)
		}
	}()
	<-started

	// Queue a second job, then abandon it before it reaches a worker.
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/solve",
		strings.NewReader(solveBody("queued\n"+tinyDeckBody, 8, 1, 1, 1, "")))
	if err != nil {
		t.Fatal(err)
	}
	abandoned := make(chan struct{})
	go func() {
		defer close(abandoned)
		resp, err := client.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitFor(t, func() bool { return scrapeMetrics(t, client, ts.URL).QueueDepth == 1 })
	cancel()
	waitFor(t, func() bool { return scrapeMetrics(t, client, ts.URL).QueueDepth == 0 })
	<-abandoned

	close(block)
	waitFor(t, func() bool { return scrapeMetrics(t, client, ts.URL).Completed == 1 })
	titles = append(titles, <-titleCh)
	if len(titles) != 1 || titles[0] != "blocker" {
		t.Fatalf("finished jobs = %v: the abandoned job must never run", titles)
	}
	if snap := scrapeMetrics(t, client, ts.URL); snap.InFlight != 0 || snap.Cancelled != 0 {
		t.Fatalf("inFlight=%d cancelled=%d, want 0/0 (the waiter never became a job)", snap.InFlight, snap.Cancelled)
	}
}
