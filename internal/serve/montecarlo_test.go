package serve

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"opmsim/internal/core"
)

// A tolerance sweep over the wire: scenario 0 nominal, the rest perturbed
// and solved by SMW updates against the cached nominal factorization. The
// stream must complete, the done report must attribute the scenarios to the
// update path and carry the offline batch's crossover rank, and /metrics
// must expose the three-way cache split. Two
// perturbed elements give rank 2, which the automatic crossover rule admits
// on this 4-state pencil (its n/2 cap).
func TestToleranceSweepOverHTTP(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	body := solveBody(tinyDeck, 16, 8, 1, 1, "")
	body = strings.Replace(body, `"hi": 1}`, `"hi": 1, "tol": 0.1, "seed": 7, "elements": 2}`, 1)
	res := submit(t, client, ts.URL, body)
	if res.status != http.StatusOK || res.done == nil {
		t.Fatalf("status=%d done=%v err=%v raw=%s", res.status, res.done, res.errRec, res.rawErr)
	}
	if res.header.Scenarios != 8 {
		t.Fatalf("scenarios = %d, want 8", res.header.Scenarios)
	}
	if len(res.columns) != 16 {
		t.Fatalf("columns = %d, want 16", len(res.columns))
	}
	// 7 perturbed scenarios ride the update path; only the nominal factors.
	if res.done.Report.CacheUpdateHits != 7 || res.done.Report.PencilRefactors != 0 {
		t.Fatalf("report: updateHits=%d refactors=%d, want 7/0",
			res.done.Report.CacheUpdateHits, res.done.Report.PencilRefactors)
	}
	if res.done.Report.Factorizations != 1 {
		t.Fatalf("factorizations = %d, want 1", res.done.Report.Factorizations)
	}
	// The trailer names the crossover rank the offline batch resolves.
	cfg := Config{}.withDefaults()
	job, rerr := parseRequest([]byte(body), &cfg)
	if rerr != nil {
		t.Fatal(rerr)
	}
	offline := &core.SolveReport{}
	if _, err := core.SolveBatchCtx(context.Background(), job.mna.Sys, job.scenarios, job.m, job.T,
		core.BatchOptions{Options: core.Options{Workers: cfg.SolveWorkers, Report: offline}}); err != nil {
		t.Fatal(err)
	}
	if offline.UpdateCrossoverRank < 1 {
		t.Fatalf("offline crossover rank %d: the sweep no longer resolves an update limit", offline.UpdateCrossoverRank)
	}
	if res.done.Report.UpdateCrossoverRank != offline.UpdateCrossoverRank {
		t.Fatalf("trailer crossover rank %d, offline report %d", res.done.Report.UpdateCrossoverRank, offline.UpdateCrossoverRank)
	}

	// The raw /metrics body must carry the split counter names.
	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, 1<<16)
	n, _ := resp.Body.Read(raw)
	resp.Body.Close()
	for _, key := range []string{`"cache_hit"`, `"cache_update_hit"`, `"cache_miss"`} {
		if !strings.Contains(string(raw[:n]), key) {
			t.Fatalf("/metrics body missing %s: %s", key, raw[:n])
		}
	}
	var snap Snapshot
	if err := json.Unmarshal(raw[:n], &snap); err != nil {
		t.Fatal(err)
	}
	if snap.FactorCache.UpdateHits != 7 {
		t.Fatalf("metrics cache_update_hit = %d, want 7", snap.FactorCache.UpdateHits)
	}
	if snap.FactorCache.Misses < 1 {
		t.Fatalf("metrics cache_miss = %d, want >= 1", snap.FactorCache.Misses)
	}

	// Same seed, same stream: the tolerance draws are counter-based.
	again := submit(t, client, ts.URL, body)
	if again.status != http.StatusOK || again.done == nil {
		t.Fatalf("rerun: status=%d err=%v", again.status, again.errRec)
	}
	for j := range res.columns {
		for s := range res.columns[j].X {
			for i := range res.columns[j].X[s] {
				a, b := res.columns[j].X[s][i], again.columns[j].X[s][i]
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("column %d scenario %d state %d differs across identical submissions: %g vs %g", j, s, i, a, b)
				}
			}
		}
	}
	// The rerun's nominal scenario hits the cached factorization outright.
	if again.done.Report.Factorizations != 0 {
		t.Fatalf("rerun factorizations = %d, want 0 (cache hit)", again.done.Report.Factorizations)
	}
}

// Tolerance sweeps degrade gracefully: invalid tol is a 400, a netlist with
// nothing to perturb is a 422, and a sweep whose rank passes the crossover
// rule's limit (all four elements: rank 4 over the 4-state pencil's n/2 cap
// of 2) refactors every perturbed scenario with honest accounting.
func TestToleranceSweepValidationAndRefactor(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	bad := strings.Replace(solveBody(tinyDeck, 8, 4, 1, 1, ""), `"hi": 1}`, `"hi": 1, "tol": 1.5}`, 1)
	if res := submit(t, client, ts.URL, bad); res.status != http.StatusBadRequest {
		t.Fatalf("tol=1.5 status = %d, want 400", res.status)
	}

	const rOnly = "sources only\nV1 in 0 STEP 1\n.tran 1m 8m\n"
	none := strings.Replace(solveBody(rOnly, 8, 2, 1, 1, ""), `"hi": 1}`, `"hi": 1, "tol": 0.1}`, 1)
	if res := submit(t, client, ts.URL, none); res.status != http.StatusUnprocessableEntity {
		t.Fatalf("no-perturbable status = %d, want 422 (%s)", res.status, res.rawErr)
	}

	body := strings.Replace(solveBody(tinyDeck, 8, 4, 1, 1, ""), `"hi": 1}`, `"hi": 1, "tol": 0.1}`, 1)
	res := submit(t, client, ts.URL, body)
	if res.status != http.StatusOK || res.done == nil {
		t.Fatalf("refactor sweep: status=%d err=%v", res.status, res.errRec)
	}
	if res.done.Report.CacheUpdateHits != 0 || res.done.Report.PencilRefactors != 3 {
		t.Fatalf("refactor sweep report: updateHits=%d refactors=%d, want 0/3",
			res.done.Report.CacheUpdateHits, res.done.Report.PencilRefactors)
	}
}
