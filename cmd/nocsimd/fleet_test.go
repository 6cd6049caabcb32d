package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestDrainingRejectsSubmits covers the shutdown window: once the
// server drains, new campaign submits are refused with 503 +
// Retry-After (so clients fail over instead of racing the drain), and
// the nocsimd_draining gauge flips for operators watching the fleet.
func TestDrainingRejectsSubmits(t *testing.T) {
	s, ts := startServer(t, config{workers: 2, jobTimeout: time.Minute})

	if got := metric(t, ts, "nocsimd_draining"); got != 0 {
		t.Fatalf("nocsimd_draining before drain = %d, want 0", got)
	}
	s.drain()
	resp, err := http.Post(ts.URL+"/fleet/campaigns", "application/json", strings.NewReader(`{"spec":`+testSpecJSON+`}`))
	if err != nil {
		t.Fatalf("POST /fleet/campaigns: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 response missing Retry-After header")
	}
	if got := metric(t, ts, "nocsimd_draining"); got != 1 {
		t.Fatalf("nocsimd_draining after drain = %d, want 1", got)
	}
}

// TestCoordinatorMode exercises the fleet deployment through the
// nocsimd surface: a -coordinator server runs no worker of its own, a
// worker pulling over HTTP drains its campaign, /metrics carries the
// fleet counters, and a drained coordinator refuses submits with 503 +
// Retry-After. A -worker process serves only /healthz, /metrics and
// /buildinfo, and the two modes do not combine.
func TestCoordinatorMode(t *testing.T) {
	s, ts := startServer(t, config{coordinator: true, shardSize: 4})
	if s.worker != nil {
		t.Fatal("-coordinator server runs an in-process worker")
	}

	// The tenant field of clients written before tenants were removed
	// is still accepted (and ignored).
	const spec = `{"tenant":"ci","spec":{
		"modes":["tdm"],"patterns":["transpose","mix:EQUAKE+LPS"],
		"meshes":[{"width":4,"height":4}],
		"rates":[0.05],"seeds":[1,2],
		"warmup_cycles":100,"measure_cycles":200}}`
	code, sub := submit(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	time.Sleep(50 * time.Millisecond)
	if st := status(t, ts, sub.ID); st.ShardsDone != 0 || st.ShardsLeased != 0 {
		t.Fatalf("a coordinator with no worker made progress: %+v", st)
	}

	w, err := newServer(config{workerURL: ts.URL, workers: 2, jobTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	wts := httptest.NewServer(w.routes())
	defer wts.Close()
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	go w.worker.Run(wctx)
	if st := waitSettled(t, ts, sub.ID); st.State != "done" {
		t.Fatalf("fleet campaign: %+v", st)
	}
	if got := metric(t, ts, "fleet_jobs_completed_total"); got != int64(sub.Jobs) {
		t.Fatalf("fleet_jobs_completed_total = %d, want %d", got, sub.Jobs)
	}
	if got := metric(t, ts, "fleet_store_live_records"); got != int64(sub.Jobs) {
		t.Fatalf("fleet_store_live_records = %d, want %d", got, sub.Jobs)
	}
	if got := metric(t, wts, "nocsimd_worker_jobs_run"); got != int64(sub.Jobs) {
		t.Fatalf("worker's nocsimd_worker_jobs_run = %d, want %d", got, sub.Jobs)
	}
	for path, want := range map[string]int{
		"/healthz": http.StatusOK, "/buildinfo": http.StatusOK,
		"/fleet/campaigns": http.StatusNotFound, "/fleet/metrics": http.StatusNotFound,
	} {
		if code, _ := get(t, wts.URL+path); code != want {
			t.Errorf("worker GET %s: status %d, want %d", path, code, want)
		}
	}

	s.drain()
	resp, err := http.Post(ts.URL+"/fleet/campaigns", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("fleet submit while draining: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("fleet 503 missing Retry-After header")
	}

	if _, err := newServer(config{coordinator: true, workerURL: ts.URL}); err == nil {
		t.Error("-coordinator with -worker was accepted")
	}
}
