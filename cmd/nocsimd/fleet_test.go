package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tdmnoc/internal/campaign"
	"tdmnoc/internal/fleet"
)

// TestDrainingRejectsSubmits covers the shutdown window: once the
// server drains, new campaign submits are refused with 503 +
// Retry-After (so clients fail over instead of racing the drain), and
// the nocsimd_draining gauge flips for operators watching the fleet.
func TestDrainingRejectsSubmits(t *testing.T) {
	s := newServer(t.TempDir(), 2, time.Minute)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	if got := metric(t, ts, "nocsimd_draining"); got != 0 {
		t.Fatalf("nocsimd_draining before drain = %d, want 0", got)
	}
	s.drainAll(time.Second)
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(testSpecJSON))
	if err != nil {
		t.Fatalf("POST /campaigns: %v", err)
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

// TestCoordinatorMode exercises the fleet wiring end to end through
// the nocsimd surface: a coordinator-mode server admits a campaign
// under /fleet/, an in-process worker drains it, /metrics carries the
// fleet counters, and a drained coordinator refuses fleet submits with
// 503 + Retry-After.
func TestCoordinatorMode(t *testing.T) {
	dir := t.TempDir()
	store, err := campaign.OpenShardedStore(filepath.Join(dir, "fleet"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	s := newServer(dir, 2, time.Minute)
	s.coord, err = fleet.NewCoordinator(fleet.Options{Store: store, ShardSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	// Specs the fleet cannot run faithfully are 400s that admit nothing.
	for name, body := range map[string]string{
		"unknown mix": `{"spec":{"modes":["tdm"],"patterns":["mix:EQUAKE+NOPE"]}}`,
		"sdm mix":     `{"spec":{"modes":["sdm"],"patterns":["mix:EQUAKE+LPS"]}}`,
		// Workers run plain grid jobs; the policy loop runs locally only.
		"policy_profile": `{"spec":{"modes":["tdm"],"patterns":["ur"],"rates":[0.1],"policy_profile":{"policies":["greedy"]}}}`,
	} {
		resp, err := http.Post(ts.URL+"/fleet/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: fleet submit status %d, want 400", name, resp.StatusCode)
		}
	}
	var listed []fleet.CampaignStatus
	getJSON(t, ts.URL+"/fleet/campaigns", &listed)
	if len(listed) != 0 {
		t.Fatalf("rejected fleet submits admitted %d campaigns", len(listed))
	}

	spec := `{"tenant":"ci","spec":{
		"modes":["tdm"],"patterns":["transpose","mix:EQUAKE+LPS"],
		"meshes":[{"width":4,"height":4}],
		"rates":[0.05],"seeds":[1,2],
		"warmup_cycles":100,"measure_cycles":200}}`
	resp, err := http.Post(ts.URL+"/fleet/campaigns", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var sub fleet.SubmitResponse
	decodeBody(t, resp, http.StatusAccepted, &sub)

	w, err := fleet.NewWorker(fleet.WorkerOptions{
		Coordinator:  ts.URL,
		Name:         "inproc",
		Workers:      2,
		PollInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	go w.Run(wctx)

	deadline := time.Now().Add(60 * time.Second)
	for {
		var st fleet.CampaignStatus
		getJSON(t, ts.URL+"/fleet/campaigns/"+sub.ID, &st)
		if st.State == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet campaign stuck: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := metric(t, ts, "fleet_jobs_completed_total"); got != int64(sub.Jobs) {
		t.Fatalf("fleet_jobs_completed_total = %d, want %d", got, sub.Jobs)
	}
	if got := metric(t, ts, "fleet_store_live_records"); got != int64(sub.Jobs) {
		t.Fatalf("fleet_store_live_records = %d, want %d", got, sub.Jobs)
	}

	s.drainAll(time.Second)
	resp, err = http.Post(ts.URL+"/fleet/campaigns", "application/json", strings.NewReader(spec))
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
}

func decodeBody(t *testing.T, resp *http.Response, wantStatus int, v any) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("status %d, want %d", resp.StatusCode, wantStatus)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode: %v", err)
	}
}
