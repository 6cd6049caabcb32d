package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tdmnoc/internal/campaign"
	"tdmnoc/internal/fleet"
	"tdmnoc/internal/stats"
)

// testSpecJSON is a 3-axis grid: 2 modes x 2 rates x 3 seeds x
// 2 patterns = 24 jobs, sized to finish in a couple of seconds.
const testSpecJSON = `{
  "name": "acceptance",
  "modes": ["packet", "tdm"],
  "patterns": ["tornado", "ur"],
  "meshes": [{"width": 4, "height": 4}],
  "rates": [0.05, 0.10],
  "seeds": [1, 2, 3],
  "warmup_cycles": 200,
  "measure_cycles": 600
}`

// startServer serves what nocsimd runs for cfg — standalone unless cfg
// says -coordinator — over a fresh data dir, with its worker (if any)
// pulling until the test ends.
func startServer(t *testing.T, cfg config) (*server, *httptest.Server) {
	t.Helper()
	cfg.data = t.TempDir()
	s, err := newServer(cfg)
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	ts := httptest.NewServer(s.routes())
	ctx, cancel := context.WithCancel(context.Background())
	done := s.runWorker(ctx)
	t.Cleanup(func() {
		ts.Close()
		cancel()
		<-done
		s.close()
	})
	return s, ts
}

// submit posts a spec to /fleet/campaigns and returns the status code
// and, on 202, the acknowledgement.
func submit(t *testing.T, ts *httptest.Server, body string) (int, fleet.SubmitResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/fleet/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /fleet/campaigns: %v", err)
	}
	defer resp.Body.Close()
	var sub fleet.SubmitResponse
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	}
	return resp.StatusCode, sub
}

// postSpec submits a spec that must be admitted.
func postSpec(t *testing.T, ts *httptest.Server, spec string) fleet.SubmitResponse {
	t.Helper()
	code, sub := submit(t, ts, `{"spec":`+spec+`}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST /fleet/campaigns status %d", code)
	}
	return sub
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, b
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	code, b := get(t, url)
	if code != http.StatusOK {
		t.Fatalf("GET %s status %d: %s", url, code, b)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
}

func status(t *testing.T, ts *httptest.Server, id string) fleet.CampaignStatus {
	t.Helper()
	var st fleet.CampaignStatus
	getJSON(t, ts.URL+"/fleet/campaigns/"+id, &st)
	return st
}

// waitSettled polls until the campaign is no longer running and no
// lease of it is still in flight.
func waitSettled(t *testing.T, ts *httptest.Server, id string) fleet.CampaignStatus {
	t.Helper()
	for deadline := time.Now().Add(120 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		if st := status(t, ts, id); st.State != "running" && st.ShardsLeased == 0 {
			return st
		}
	}
	t.Fatalf("campaign %s did not finish", id)
	return fleet.CampaignStatus{}
}

func metric(t *testing.T, ts *httptest.Server, name string) int64 {
	t.Helper()
	_, body := get(t, ts.URL+"/metrics")
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, name+" ") {
			var val int64
			if _, err := fmt.Sscanf(line, name+" %d", &val); err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return val
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, body)
	return 0
}

// TestServiceAcceptance is the service's acceptance scenario: a 3-axis,
// 24-job campaign completes on a standalone nocsimd, and re-submitting
// the identical spec is served from the store with no job re-run.
func TestServiceAcceptance(t *testing.T) {
	_, ts := startServer(t, config{workers: 4, jobTimeout: time.Minute})

	sub := postSpec(t, ts, testSpecJSON)
	if sub.Jobs != 24 {
		t.Fatalf("submitted %d jobs, want 24", sub.Jobs)
	}
	st := waitSettled(t, ts, sub.ID)
	if st.State != "done" || st.JobsFailed != 0 || st.ShardsDone != st.Shards {
		t.Fatalf("campaign status %+v, want done with no failures", st)
	}

	// Results: 24 records, none failed, all carrying metrics.
	var recs []campaign.Record
	getJSON(t, ts.URL+"/fleet/campaigns/"+sub.ID+"/results", &recs)
	if len(recs) != 24 {
		t.Fatalf("results count %d, want 24", len(recs))
	}
	for _, r := range recs {
		if r.Err != "" || r.Result.Packets == 0 {
			t.Errorf("bad record %s: err=%q packets=%d", r.Label, r.Err, r.Result.Packets)
		}
	}

	// Summary merges the 3 seeds: 24/3 = 8 groups.
	var rows []struct {
		Group  string `json:"group"`
		Result struct {
			Runs int64 `json:"runs"`
		} `json:"result"`
	}
	getJSON(t, ts.URL+"/fleet/campaigns/"+sub.ID+"/summary", &rows)
	if len(rows) != 8 {
		t.Errorf("summary groups = %d, want 8", len(rows))
	}
	for _, row := range rows {
		if row.Result.Runs != 3 {
			t.Errorf("group %s merged %d seeds, want 3", row.Group, row.Result.Runs)
		}
	}
	if got := metric(t, ts, "fleet_jobs_completed_total"); got != 24 {
		t.Errorf("fleet_jobs_completed_total = %d, want 24", got)
	}
	if got := metric(t, ts, "nocsimd_worker_jobs_run"); got != 24 {
		t.Errorf("nocsimd_worker_jobs_run = %d, want 24", got)
	}

	// Re-submit the identical spec: every shard comes from the store, so
	// the campaign is born done and nothing simulates.
	sub2 := postSpec(t, ts, testSpecJSON)
	if sub2.ID == sub.ID {
		t.Fatalf("resubmission reused campaign id %s", sub.ID)
	}
	if sub2.CachedShards != sub2.Shards {
		t.Fatalf("resubmission: %d of %d shards cached, want all", sub2.CachedShards, sub2.Shards)
	}
	if st2 := status(t, ts, sub2.ID); st2.State != "done" {
		t.Fatalf("resubmission state %q, want done", st2.State)
	}
	if got := metric(t, ts, "nocsimd_worker_jobs_run"); got != 24 {
		t.Errorf("nocsimd_worker_jobs_run = %d after resubmission, want 24", got)
	}
	if got := metric(t, ts, "fleet_campaigns_total"); got != 2 {
		t.Errorf("fleet_campaigns_total = %d, want 2", got)
	}
}

// TestServiceMixCampaign submits a Section V mix spec — no rates, the
// patterns axis names the benchmarks — and reads the Table III figures
// back from /results; resubmitting it is served from the store.
func TestServiceMixCampaign(t *testing.T) {
	_, ts := startServer(t, config{workers: 2, jobTimeout: time.Minute})

	const spec = `{"name":"mixes","modes":["tdm"],"patterns":["mix:EQUAKE+LPS","mix:EQUAKE+STO"],
		"warmup_cycles":200,"measure_cycles":800}`
	sub := postSpec(t, ts, spec)
	if st := waitSettled(t, ts, sub.ID); st.State != "done" || st.JobsFailed != 0 {
		t.Fatalf("mix campaign: %+v", st)
	}
	var recs []campaign.Record
	getJSON(t, ts.URL+"/fleet/campaigns/"+sub.ID+"/results", &recs)
	if len(recs) != 2 || recs[0].Pattern != "mix:EQUAKE+LPS" || recs[1].Pattern != "mix:EQUAKE+STO" {
		t.Fatalf("results = %+v", recs)
	}
	for _, r := range recs {
		res := r.Result
		if r.Err != "" || r.Rate != 0 || res.CPUInstructions == 0 || res.GPUIterations == 0 ||
			res.GPUInjectionRate() <= 0 || res.GPUCSFraction() <= 0 || len(res.DynamicPJ) != 6 || len(res.StaticPJ) != 6 {
			t.Errorf("record %s lacks the Section V figures: %+v", r.Label, r)
		}
	}
	// LPS offers four times STO's load (Table III: 0.20 vs 0.05).
	if lps, sto := recs[0].Result.GPUInjectionRate(), recs[1].Result.GPUInjectionRate(); lps < 2*sto {
		t.Errorf("GPU injection LPS %.3f vs STO %.3f: want LPS well above STO", lps, sto)
	}
	var rows []json.RawMessage
	getJSON(t, ts.URL+"/fleet/campaigns/"+sub.ID+"/summary", &rows)
	if len(rows) != 2 {
		t.Errorf("summary groups = %d, want 2", len(rows))
	}
	if again := postSpec(t, ts, spec); again.CachedShards != again.Shards {
		t.Errorf("resubmitted mix spec: %d of %d shards cached, want all", again.CachedShards, again.Shards)
	}
}

// TestServiceRejectsBadSpec: every spec the campaign layer refuses is a
// 400 (413 past the body cap) at submit, and admits nothing. Unknown
// fields are refused as ParseSpec refuses them, at either level of the
// request.
func TestServiceRejectsBadSpec(t *testing.T) {
	_, ts := startServer(t, config{workers: 2, jobTimeout: time.Minute})

	for name, tc := range map[string]struct {
		body string
		want int
	}{
		"empty":         {`{}`, http.StatusBadRequest},
		"empty spec":    {`{"spec":{}}`, http.StatusBadRequest},
		"unknown field": {`{"spec":{"modes":["tdm"],"patterns":["ur"],"rates":[0.1],"bogus":true}}`, http.StatusBadRequest},
		// A misspelt axis would otherwise leave "seeds" at its default and
		// run a grid the caller did not write.
		"misspelt axis":         {`{"spec":{"modes":["tdm"],"patterns":["ur"],"rates":[0.1],"seed":[7]}}`, http.StatusBadRequest},
		"unknown request field": {`{"priority":9,"spec":{"modes":["tdm"],"patterns":["ur"],"rates":[0.1]}}`, http.StatusBadRequest},
		"bad mode":              {`{"spec":{"modes":["quantum"],"patterns":["ur"],"rates":[0.1]}}`, http.StatusBadRequest},
		"zero rate":             {`{"spec":{"modes":["tdm"],"patterns":["ur"],"rates":[0]}}`, http.StatusBadRequest},
		"not json":              {`modes=tdm`, http.StatusBadRequest},
		// Two simulations that would share one cache key and one label.
		"rates sharing a key": {`{"spec":{"modes":["tdm"],"patterns":["ur"],"rates":[0.1,0.1000000001]}}`, http.StatusBadRequest},
		// A mix the simulator would refuse is refused here, not as N failed jobs.
		"unknown mix":  {`{"spec":{"modes":["tdm"],"patterns":["mix:EQUAKE+NOPE"]}}`, http.StatusBadRequest},
		"sdm mix":      {`{"spec":{"modes":["sdm"],"patterns":["mix:EQUAKE+LPS"]}}`, http.StatusBadRequest},
		"mix on 2x2":   {`{"spec":{"modes":["tdm"],"patterns":["mix:EQUAKE+LPS"],"meshes":[{"width":2,"height":2}]}}`, http.StatusBadRequest},
		"sdm-gate mix": {`{"spec":{"modes":["tdm"],"patterns":["mix:EQUAKE+LPS"],"policy_profile":{"policies":["sdm-gate"]}}}`, http.StatusBadRequest},
		// 1025 x 1025 jobs, just past campaign.MaxJobs, in a ~7 KB body.
		"huge grid": {`{"spec":{"modes":["tdm"],"patterns":["ur"],"rates":[0.1` + strings.Repeat(",0.1", 1024) + `],"seeds":[1` + strings.Repeat(",1", 1024) + `]}}`, http.StatusBadRequest},
		// Values that size one job's memory: accepted, each would OOM-kill
		// the worker that leased it, and then the next.
		"huge mesh":       {`{"spec":{"modes":["tdm"],"patterns":["ur"],"rates":[0.1],"meshes":[{"width":3000,"height":3000}]}}`, http.StatusBadRequest},
		"huge slot table": {`{"spec":{"modes":["tdm"],"patterns":["ur"],"rates":[0.1],"slot_tables":[1048576]}}`, http.StatusBadRequest},
		"sim workers":     {`{"spec":{"modes":["tdm"],"patterns":["ur"],"rates":[0.1],"sim_workers":65}}`, http.StatusBadRequest},
		// An otherwise valid spec whose name runs past the 8 MiB body cap.
		"oversized": {`{"spec":{"name":"` + strings.Repeat("x", 8<<20) + `","modes":["tdm"],"patterns":["ur"],"rates":[0.1]}}`, http.StatusRequestEntityTooLarge},
	} {
		if code, _ := submit(t, ts, tc.body); code != tc.want {
			t.Errorf("%s: status %d, want %d", name, code, tc.want)
		}
	}

	// A rejected submit leaves nothing behind.
	var listed []fleet.CampaignStatus
	getJSON(t, ts.URL+"/fleet/campaigns", &listed)
	if len(listed) != 0 {
		t.Errorf("rejected submits left %d campaigns behind", len(listed))
	}
	if got := metric(t, ts, "fleet_submits_rejected_total"); got != 0 {
		t.Errorf("fleet_submits_rejected_total = %d; a malformed spec is not a quota or drain rejection", got)
	}
	if code, _ := get(t, ts.URL+"/fleet/campaigns/nope"); code != http.StatusNotFound {
		t.Errorf("unknown campaign: status %d, want 404", code)
	}
}

// TestServiceCancelAndResume cancels a campaign mid-run: its queued
// shards never run, the in-flight one lands, and re-submitting the
// same spec serves the finished prefix from the store.
func TestServiceCancelAndResume(t *testing.T) {
	// One job at a time, one job per shard: slow enough to cancel mid-run.
	_, ts := startServer(t, config{workers: 1, jobTimeout: time.Minute, shardSize: 1})

	spec := `{
	  "modes": ["tdm"], "patterns": ["tornado"],
	  "meshes": [{"width": 5, "height": 5}],
	  "rates": [0.05, 0.08, 0.11, 0.14, 0.17, 0.20],
	  "seeds": [1, 2, 3, 4],
	  "warmup_cycles": 2000, "measure_cycles": 6000
	}`
	sub := postSpec(t, ts, spec)
	for deadline := time.Now().Add(60 * time.Second); status(t, ts, sub.ID).ShardsDone < 2; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no shard finished")
		}
	}
	resp, err := http.Post(ts.URL+"/fleet/campaigns/"+sub.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var cancelled fleet.CampaignStatus
	err = json.NewDecoder(resp.Body).Decode(&cancelled)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || cancelled.State != "cancelled" {
		t.Fatalf("cancel: status %d, %+v (err %v), want 200 and state cancelled", resp.StatusCode, cancelled, err)
	}
	st := waitSettled(t, ts, sub.ID)
	if st.State != "cancelled" || st.ShardsDone == 0 || st.ShardsDone >= st.Shards {
		t.Fatalf("cancel landed at %d/%d shards, state %q — not mid-run", st.ShardsDone, st.Shards, st.State)
	}
	if got := metric(t, ts, "fleet_queue_depth"); got != 0 {
		t.Errorf("fleet_queue_depth = %d after cancel, want 0", got)
	}
	if code, _ := get(t, ts.URL+"/fleet/campaigns/nope/cancel"); code != http.StatusMethodNotAllowed {
		t.Errorf("GET cancel: status %d, want 405", code)
	}

	// Re-submit: the finished prefix must come from the store.
	sub2 := postSpec(t, ts, spec)
	if sub2.CachedShards < st.ShardsDone {
		t.Errorf("resumed campaign cached %d shards, want >= %d (the shards finished before cancel)", sub2.CachedShards, st.ShardsDone)
	}
	if st2 := waitSettled(t, ts, sub2.ID); st2.State != "done" || st2.ShardsDone != st2.Shards || st2.JobsFailed != 0 {
		t.Fatalf("resumed campaign: %+v", st2)
	}
}

// TestServiceFailedJobsEndDone: jobs that run and fail — here every job
// of the campaign, each past a one-nanosecond timeout — leave a campaign
// "done" with every job counted failed and nothing persisted. Only a
// cancel makes a campaign "cancelled".
func TestServiceFailedJobsEndDone(t *testing.T) {
	_, ts := startServer(t, config{workers: 1, jobTimeout: time.Nanosecond})

	sub := postSpec(t, ts, testSpecJSON)
	st := waitSettled(t, ts, sub.ID)
	if st.State != "done" || st.JobsFailed != sub.Jobs {
		t.Fatalf("campaign of timed-out jobs: %+v; want done with %d failed", st, sub.Jobs)
	}
	if got := metric(t, ts, "fleet_store_live_records"); got != 0 {
		t.Errorf("fleet_store_live_records = %d, want 0: failed records are never persisted", got)
	}
}

// TestServiceBuildInfo: /buildinfo reports how the binary was built.
func TestServiceBuildInfo(t *testing.T) {
	_, ts := startServer(t, config{workers: 1, jobTimeout: time.Minute})

	var bi map[string]string
	getJSON(t, ts.URL+"/buildinfo", &bi)
	if !strings.HasPrefix(bi["go"], "go") {
		t.Errorf("buildinfo go = %q, want a go version", bi["go"])
	}
	if bi["module"] != "tdmnoc" {
		t.Errorf("buildinfo module = %q, want tdmnoc", bi["module"])
	}
}

// TestServiceTelemetryCampaign: a spec with telemetry_every yields a
// /timeline with per-job summaries, and the records' summaries fold
// into the steal counter and setup-latency histogram on /metrics.
func TestServiceTelemetryCampaign(t *testing.T) {
	_, ts := startServer(t, config{workers: 2, jobTimeout: time.Minute})

	// The histogram schema must be present before any campaign runs.
	if got := metric(t, ts, `fleet_setup_latency_cycles_bucket{le="+Inf"}`); got != 0 {
		t.Errorf("empty-server setup histogram +Inf = %d, want 0", got)
	}

	spec := `{
	  "modes": ["tdm"], "patterns": ["tornado", "ur"],
	  "meshes": [{"width": 4, "height": 4}],
	  "rates": [0.10], "seeds": [1, 2],
	  "warmup_cycles": 200, "measure_cycles": 1000,
	  "telemetry_every": 64
	}`
	sub := postSpec(t, ts, spec)
	if st := waitSettled(t, ts, sub.ID); st.State != "done" || st.JobsFailed != 0 {
		t.Fatalf("telemetry campaign did not finish clean: %+v", st)
	}

	var rows []struct {
		Label     string          `json:"label"`
		Telemetry json.RawMessage `json:"telemetry"`
	}
	getJSON(t, ts.URL+"/fleet/campaigns/"+sub.ID+"/timeline", &rows)
	if len(rows) != 4 {
		t.Fatalf("timeline rows = %d, want 4", len(rows))
	}
	for _, row := range rows {
		var sum map[string]any
		if err := json.Unmarshal(row.Telemetry, &sum); err != nil {
			t.Fatalf("row %s telemetry: %v", row.Label, err)
		}
		if sum["injected"].(float64) == 0 || sum["events"].(float64) == 0 {
			t.Errorf("row %s telemetry looks empty: %v", row.Label, sum)
		}
		// The timeline payload carries the dropped-windows counter so
		// clients can tell a truncated series from a complete one.
		if dw, ok := sum["dropped_windows"].(float64); !ok {
			t.Errorf("row %s telemetry lacks dropped_windows: %v", row.Label, sum)
		} else if dw != 0 {
			t.Errorf("row %s dropped %v windows in a short run", row.Label, dw)
		}
	}

	if got := metric(t, ts, "fleet_telemetry_jobs_total"); got != 4 {
		t.Errorf("fleet_telemetry_jobs_total = %d, want 4", got)
	}
	if got := metric(t, ts, "fleet_telemetry_dropped_windows_total"); got != 0 {
		t.Errorf("fleet_telemetry_dropped_windows_total = %d, want 0", got)
	}
	// This short, full-capacity campaign must drop no ring events.
	if got := metric(t, ts, "fleet_telemetry_ring_drops_total"); got != 0 {
		t.Errorf("fleet_telemetry_ring_drops_total = %d, want 0", got)
	}
	if got := metric(t, ts, "fleet_leases_active"); got != 0 {
		t.Errorf("fleet_leases_active = %d after completion, want 0", got)
	}
	// Tornado at 0.10 establishes circuits, so setups must be observed
	// and the +Inf bucket must equal the count.
	count := metric(t, ts, "fleet_setup_latency_cycles_count")
	if count == 0 {
		t.Error("setup-latency histogram empty after a tdm telemetry campaign")
	}
	if inf := metric(t, ts, `fleet_setup_latency_cycles_bucket{le="+Inf"}`); inf != count {
		t.Errorf("+Inf bucket %d != count %d", inf, count)
	}
	// A resubmit persists nothing new, so it folds nothing in again.
	if again := postSpec(t, ts, spec); again.CachedShards != again.Shards {
		t.Fatalf("resubmit cached %d of %d shards", again.CachedShards, again.Shards)
	}
	if got := metric(t, ts, "fleet_telemetry_jobs_total"); got != 4 {
		t.Errorf("fleet_telemetry_jobs_total = %d after a cached resubmit, want 4", got)
	}
}

// TestServicePolicyCampaign: a policy_profile spec runs the profile →
// re-run loop on the standalone service and /policy serves exactly the
// report a local run computes; plain campaigns and unknown ids 404.
func TestServicePolicyCampaign(t *testing.T) {
	_, ts := startServer(t, config{workers: 2, jobTimeout: time.Minute})

	const specJSON = `{
	  "modes": ["tdm"], "patterns": ["tornado"],
	  "meshes": [{"width": 4, "height": 4}],
	  "rates": [0.15], "seeds": [1],
	  "warmup_cycles": 300, "measure_cycles": 1200,
	  "policy_profile": {"policies": ["static", "greedy"]}
	}`
	sub := postSpec(t, ts, specJSON)
	if st := waitSettled(t, ts, sub.ID); st.State != "done" {
		t.Fatalf("policy campaign: %+v", st)
	}

	var rep campaign.PolicyReport
	getJSON(t, ts.URL+"/fleet/campaigns/"+sub.ID+"/policy", &rep)
	if len(rep.Outcomes) != 2 {
		t.Fatalf("policy outcomes = %d, want 2", len(rep.Outcomes))
	}
	for _, out := range rep.Outcomes {
		if out.Err != "" {
			t.Errorf("outcome %s/%s failed: %s", out.Label, out.Policy, out.Err)
		}
		if out.EnergyPerFlit <= 0 {
			t.Errorf("outcome %s/%s has no energy metric: %+v", out.Label, out.Policy, out)
		}
	}
	if rep.Outcomes[0].Policy != "static" || rep.Outcomes[0].EnergyDeltaPct != 0 {
		t.Errorf("static baseline outcome = %+v", rep.Outcomes[0])
	}
	if rep.Outcomes[1].Policy != "greedy" || len(rep.Outcomes[1].Decision.PinnedFlows) == 0 {
		t.Errorf("greedy outcome pinned nothing: %+v", rep.Outcomes[1])
	}

	// The report is the local one, byte for byte.
	spec, err := campaign.ParseSpec(strings.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	grid, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(spec.Report(grid, campaign.Lookup(campaign.New(campaign.Options{Workers: 2}).RunSpec(context.Background(), spec, grid))))
	if got, _ := json.Marshal(rep); !bytes.Equal(got, want) {
		t.Errorf("/policy differs from the local report:\nserved: %s\nlocal:  %s", got, want)
	}

	// Both waves' records are ordinary results.
	var recs []campaign.Record
	getJSON(t, ts.URL+"/fleet/campaigns/"+sub.ID+"/results", &recs)
	if len(recs) != 2 {
		t.Errorf("policy campaign serves %d records, want the profiling run and greedy's re-run", len(recs))
	}

	plain := postSpec(t, ts, `{
	  "modes": ["tdm"], "patterns": ["ur"],
	  "meshes": [{"width": 4, "height": 4}],
	  "rates": [0.05], "seeds": [1],
	  "warmup_cycles": 100, "measure_cycles": 200
	}`)
	waitSettled(t, ts, plain.ID)
	if code, _ := get(t, ts.URL+"/fleet/campaigns/"+plain.ID+"/policy"); code != http.StatusNotFound {
		t.Errorf("policy endpoint on plain campaign: status %d, want 404", code)
	}
	if code, _ := get(t, ts.URL+"/fleet/campaigns/nope/policy"); code != http.StatusNotFound {
		t.Errorf("policy endpoint on unknown campaign: status %d, want 404", code)
	}
}

// TestStandaloneSummaryMatchesEngine: the standalone service's /summary
// is byte-identical to campaign.Aggregate over a local Engine.RunSpec of
// the same spec, rendered as the handler renders it — for a plain spec
// and for a policy study, whose summary folds both waves.
func TestStandaloneSummaryMatchesEngine(t *testing.T) {
	_, ts := startServer(t, config{workers: 2, jobTimeout: time.Minute, shardSize: 2})

	for name, specJSON := range map[string]string{
		"plain": `{"modes":["packet","tdm"],"patterns":["transpose"],"meshes":[{"width":4,"height":4}],
			"rates":[0.05,0.10],"seeds":[1,2],"warmup_cycles":200,"measure_cycles":400}`,
		"policy": `{"modes":["tdm"],"patterns":["tornado","transpose"],"meshes":[{"width":4,"height":4}],
			"rates":[0.15],"seeds":[1],"warmup_cycles":300,"measure_cycles":1200,
			"policy_profile":{"policies":["static","threshold","greedy"]}}`,
	} {
		spec, err := campaign.ParseSpec(strings.NewReader(specJSON))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		grid, err := spec.Expand()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		local := campaign.New(campaign.Options{Workers: 2}).RunSpec(context.Background(), spec, grid)
		want := summaryBytes(t, campaign.Aggregate(local, campaign.GroupWithoutSeed))

		sub := postSpec(t, ts, specJSON)
		if st := waitSettled(t, ts, sub.ID); st.State != "done" || st.JobsFailed != 0 {
			t.Fatalf("%s: %+v", name, st)
		}
		if code, got := get(t, ts.URL+"/fleet/campaigns/"+sub.ID+"/summary"); code != http.StatusOK || !bytes.Equal(got, want) {
			t.Errorf("%s: /summary (status %d) differs from Aggregate(RunSpec):\nserved: %s\nlocal:  %s", name, code, got, want)
		}
	}
}

// summaryBytes renders aggregates as the /summary handler does.
func summaryBytes(t *testing.T, agg map[string]stats.RunRecord) []byte {
	t.Helper()
	keys, _ := fleet.SummaryGroups(agg)
	type row struct {
		Group  string          `json:"group"`
		Result json.RawMessage `json:"result"`
	}
	var rows []row
	for _, k := range keys {
		b, err := json.Marshal(agg[k])
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row{Group: k, Result: b})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rows); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
