package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"tdmnoc/internal/campaign"
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

func postSpec(t *testing.T, ts *httptest.Server, spec string) map[string]any {
	t.Helper()
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("POST /campaigns: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /campaigns status %d", resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode submit response: %v", err)
	}
	return out
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
}

func waitDone(t *testing.T, ts *httptest.Server, id string) statusView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var st statusView
		getJSON(t, ts.URL+"/campaigns/"+id, &st)
		if st.State != "running" {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("campaign %s did not finish", id)
	return statusView{}
}

func metric(t *testing.T, ts *httptest.Server, name string) int64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read /metrics: %v", err)
	}
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

// TestServiceAcceptance is the issue's acceptance scenario: a 3-axis,
// 24-job campaign completes with consistent counters, and re-submitting
// the identical spec is served 100% from the result cache.
func TestServiceAcceptance(t *testing.T) {
	s := newServer(t.TempDir(), 4, time.Minute)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	sub := postSpec(t, ts, testSpecJSON)
	if int(sub["jobs"].(float64)) != 24 {
		t.Fatalf("submitted %v jobs, want 24", sub["jobs"])
	}
	id := sub["id"].(string)

	st := waitDone(t, ts, id)
	if st.State != "done" {
		t.Fatalf("campaign state %q, want done", st.State)
	}
	if st.Counters.Done != 24 || st.Counters.Failed != 0 || st.Counters.Queued != 0 {
		t.Fatalf("counters inconsistent with 24 jobs: %+v", st.Counters)
	}
	if st.Counters.CyclesSimulated != 24*800 {
		t.Errorf("cycles simulated = %d, want %d", st.Counters.CyclesSimulated, 24*800)
	}

	// Results: 24 records, none failed, all carrying metrics.
	var recs []campaign.Record
	getJSON(t, ts.URL+"/campaigns/"+id+"/results", &recs)
	if len(recs) != 24 {
		t.Fatalf("results count %d, want 24", len(recs))
	}
	for _, r := range recs {
		if r.Err != "" || r.Result.Packets == 0 {
			t.Errorf("bad record %s: err=%q packets=%d", r.Label, r.Err, r.Result.Packets)
		}
	}

	// Summary merges the 3 seeds: 24/3 = 8 groups.
	var rows []map[string]any
	getJSON(t, ts.URL+"/campaigns/"+id+"/summary", &rows)
	if len(rows) != 8 {
		t.Errorf("summary groups = %d, want 8", len(rows))
	}
	for _, row := range rows {
		if int(row["seeds"].(float64)) != 3 {
			t.Errorf("group %v merged %v seeds, want 3", row["group"], row["seeds"])
		}
	}

	if got := metric(t, ts, "nocsimd_jobs_done"); got != 24 {
		t.Errorf("nocsimd_jobs_done = %d, want 24", got)
	}
	if got := metric(t, ts, "nocsimd_cache_hits"); got != 0 {
		t.Errorf("nocsimd_cache_hits = %d, want 0 on first run", got)
	}

	// Re-submit the identical spec: every job must be a cache hit and
	// no new cycles may be simulated.
	sub2 := postSpec(t, ts, testSpecJSON)
	id2 := sub2["id"].(string)
	if id2 == id {
		t.Fatalf("resubmission reused campaign id %s", id)
	}
	st2 := waitDone(t, ts, id2)
	if st2.Counters.CacheHits != 24 || st2.Counters.CyclesSimulated != 0 {
		t.Fatalf("resubmission: cache hits %d (want 24), cycles %d (want 0)",
			st2.Counters.CacheHits, st2.Counters.CyclesSimulated)
	}
	if got := metric(t, ts, "nocsimd_cache_hits"); got != 24 {
		t.Errorf("nocsimd_cache_hits = %d, want 24 after resubmission", got)
	}
	if got := metric(t, ts, "nocsimd_jobs_done"); got != 48 {
		t.Errorf("nocsimd_jobs_done = %d, want 48 across both campaigns", got)
	}
	if got := metric(t, ts, "nocsimd_campaigns_total"); got != 2 {
		t.Errorf("nocsimd_campaigns_total = %d, want 2", got)
	}
}

// TestServiceMixCampaign submits a Section V mix spec — no rates, the
// patterns axis names the benchmarks — and reads the Table III figures
// back from /results; resubmitting it is served from the store.
func TestServiceMixCampaign(t *testing.T) {
	s := newServer(t.TempDir(), 2, time.Minute)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	const spec = `{"name":"mixes","modes":["tdm"],"patterns":["mix:EQUAKE+LPS","mix:EQUAKE+STO"],
		"warmup_cycles":200,"measure_cycles":800}`
	sub := postSpec(t, ts, spec)
	id := sub["id"].(string)
	if st := waitDone(t, ts, id); st.State != "done" || st.Counters.Done != 2 || st.Counters.Failed != 0 {
		t.Fatalf("mix campaign: %+v", st)
	}
	var recs []campaign.Record
	getJSON(t, ts.URL+"/campaigns/"+id+"/results", &recs)
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
	var rows []map[string]any
	getJSON(t, ts.URL+"/campaigns/"+id+"/summary", &rows)
	if len(rows) != 2 {
		t.Errorf("summary groups = %d, want 2", len(rows))
	}
	if st := waitDone(t, ts, postSpec(t, ts, spec)["id"].(string)); st.Counters.CacheHits != 2 || st.Counters.CyclesSimulated != 0 {
		t.Errorf("resubmitted mix spec: %+v, want 2 cache hits and no cycles", st.Counters)
	}
}

func TestServiceRejectsBadSpec(t *testing.T) {
	dir := t.TempDir()
	s := newServer(dir, 2, time.Minute)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	for name, tc := range map[string]struct {
		body string
		want int
	}{
		"empty":         {`{}`, http.StatusBadRequest},
		"unknown field": {`{"modes":["tdm"],"patterns":["ur"],"rates":[0.1],"bogus":true}`, http.StatusBadRequest},
		"bad mode":      {`{"modes":["quantum"],"patterns":["ur"],"rates":[0.1]}`, http.StatusBadRequest},
		"zero rate":     {`{"modes":["tdm"],"patterns":["ur"],"rates":[0]}`, http.StatusBadRequest},
		"not json":      {`modes=tdm`, http.StatusBadRequest},
		// A mix the simulator would refuse is refused here, not as N failed jobs.
		"unknown mix":  {`{"modes":["tdm"],"patterns":["mix:EQUAKE+NOPE"]}`, http.StatusBadRequest},
		"sdm mix":      {`{"modes":["sdm"],"patterns":["mix:EQUAKE+LPS"]}`, http.StatusBadRequest},
		"mix on 2x2":   {`{"modes":["tdm"],"patterns":["mix:EQUAKE+LPS"],"meshes":[{"width":2,"height":2}]}`, http.StatusBadRequest},
		"sdm-gate mix": {`{"modes":["tdm"],"patterns":["mix:EQUAKE+LPS"],"policy_profile":{"policies":["sdm-gate"]}}`, http.StatusBadRequest},
		// 1025 x 1025 jobs, just past campaign.MaxJobs, in a ~7 KB body.
		"huge grid": {`{"modes":["tdm"],"patterns":["ur"],"rates":[0.1` + strings.Repeat(",0.1", 1024) + `],"seeds":[1` + strings.Repeat(",1", 1024) + `]}`, http.StatusBadRequest},
		// An otherwise valid spec whose name runs past the body cap.
		"oversized": {`{"name":"` + strings.Repeat("x", maxSpecBody) + `","modes":["tdm"],"patterns":["ur"],"rates":[0.1]}`, http.StatusRequestEntityTooLarge},
	} {
		resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", name, resp.StatusCode, tc.want)
		}
	}

	// A rejected submit leaves nothing behind: no campaign, no store file.
	var views []statusView
	getJSON(t, ts.URL+"/campaigns", &views)
	if len(views) != 0 {
		t.Errorf("rejected submits left %d campaigns behind", len(views))
	}
	if files, err := os.ReadDir(dir); err != nil || len(files) != 0 {
		t.Errorf("rejected submits left files in the data dir: %v (err %v)", files, err)
	}

	resp, err := http.Get(ts.URL + "/campaigns/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown campaign: status %d, want 404", resp.StatusCode)
	}
}

// TestServiceCancelAndResume cancels a campaign mid-run, then
// re-submits the same spec and checks the finished prefix is served
// from the persisted store.
func TestServiceCancelAndResume(t *testing.T) {
	dir := t.TempDir()
	s := newServer(dir, 1, time.Minute) // one worker → slow enough to cancel mid-run
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	// A bigger grid so the single worker is still busy when we cancel.
	spec := `{
	  "modes": ["tdm"], "patterns": ["tornado"],
	  "meshes": [{"width": 5, "height": 5}],
	  "rates": [0.05, 0.08, 0.11, 0.14, 0.17, 0.20],
	  "seeds": [1, 2, 3, 4],
	  "warmup_cycles": 2000, "measure_cycles": 6000
	}`
	sub := postSpec(t, ts, spec)
	id := sub["id"].(string)
	jobs := int(sub["jobs"].(float64))

	// Let a few jobs land, then cancel.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var st statusView
		getJSON(t, ts.URL+"/campaigns/"+id, &st)
		if st.Counters.Done >= 2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, err := http.Post(ts.URL+"/campaigns/"+id+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	st := waitDone(t, ts, id)
	if st.Counters.Done == 0 || st.Counters.Done >= int64(jobs) {
		t.Fatalf("cancel landed at %d/%d jobs — not mid-run", st.Counters.Done, jobs)
	}
	finished := st.Counters.Done

	// Re-submit: the finished prefix must come from cache.
	sub2 := postSpec(t, ts, spec)
	st2 := waitDone(t, ts, sub2["id"].(string))
	if st2.State != "done" {
		t.Fatalf("resumed campaign state %q", st2.State)
	}
	if st2.Counters.Done != int64(jobs) {
		t.Errorf("resumed done = %d, want %d", st2.Counters.Done, jobs)
	}
	if st2.Counters.CacheHits < finished {
		t.Errorf("resumed cache hits = %d, want >= %d (the jobs finished before cancel)",
			st2.Counters.CacheHits, finished)
	}
}

// TestServiceBuildInfo: /buildinfo reports how the binary was built.
func TestServiceBuildInfo(t *testing.T) {
	s := newServer(t.TempDir(), 1, time.Minute)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

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
// /timeline with per-job summaries and feeds the inflight gauge, steal
// counter and setup-latency histogram on /metrics.
func TestServiceTelemetryCampaign(t *testing.T) {
	s := newServer(t.TempDir(), 2, time.Minute)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	// The histogram schema must be present before any campaign runs.
	if got := metric(t, ts, `nocsimd_setup_latency_cycles_bucket{le="+Inf"}`); got != 0 {
		t.Errorf("empty-server setup histogram +Inf = %d, want 0", got)
	}
	if got := metric(t, ts, "nocsimd_jobs_inflight"); got != 0 {
		t.Errorf("empty-server inflight = %d, want 0", got)
	}

	spec := `{
	  "modes": ["tdm"], "patterns": ["tornado", "ur"],
	  "meshes": [{"width": 4, "height": 4}],
	  "rates": [0.10], "seeds": [1, 2],
	  "warmup_cycles": 200, "measure_cycles": 1000,
	  "telemetry_every": 64
	}`
	sub := postSpec(t, ts, spec)
	id := sub["id"].(string)
	st := waitDone(t, ts, id)
	if st.State != "done" || st.Counters.Failed != 0 {
		t.Fatalf("telemetry campaign did not finish clean: %+v", st)
	}

	var rows []struct {
		Label     string          `json:"label"`
		Telemetry json.RawMessage `json:"telemetry"`
	}
	getJSON(t, ts.URL+"/campaigns/"+id+"/timeline", &rows)
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

	if got := metric(t, ts, "nocsimd_telemetry_jobs"); got != 4 {
		t.Errorf("nocsimd_telemetry_jobs = %d, want 4", got)
	}
	if got := metric(t, ts, "nocsimd_telemetry_dropped_windows_total"); got != 0 {
		t.Errorf("nocsimd_telemetry_dropped_windows_total = %d, want 0", got)
	}
	// The ring-drop counters appear once telemetry jobs have run: the
	// total plus one labeled series per worker shard (this short,
	// full-capacity campaign must drop nothing).
	if got := metric(t, ts, "nocsimd_telemetry_ring_drops_total"); got != 0 {
		t.Errorf("nocsimd_telemetry_ring_drops_total = %d, want 0", got)
	}
	if got := metric(t, ts, `nocsimd_telemetry_ring_drops{shard="0"}`); got != 0 {
		t.Errorf(`ring_drops{shard="0"} = %d, want 0`, got)
	}
	if got := metric(t, ts, "nocsimd_jobs_inflight"); got != 0 {
		t.Errorf("nocsimd_jobs_inflight = %d after completion, want 0", got)
	}
	// Tornado at 0.10 establishes circuits, so setups must be observed
	// and the +Inf bucket must equal the count.
	count := metric(t, ts, "nocsimd_setup_latency_cycles_count")
	if count == 0 {
		t.Error("setup-latency histogram empty after a tdm telemetry campaign")
	}
	if inf := metric(t, ts, `nocsimd_setup_latency_cycles_bucket{le="+Inf"}`); inf != count {
		t.Errorf("+Inf bucket %d != count %d", inf, count)
	}
}

// TestServicePolicyCampaign: a policy_profile spec runs the offline
// profile→re-run loop end to end and serves the comparison report on
// /campaigns/{id}/policy; plain campaigns 404 on that endpoint.
func TestServicePolicyCampaign(t *testing.T) {
	s := newServer(t.TempDir(), 2, time.Minute)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	spec := `{
	  "modes": ["tdm"], "patterns": ["tornado"],
	  "meshes": [{"width": 4, "height": 4}],
	  "rates": [0.15], "seeds": [1],
	  "warmup_cycles": 300, "measure_cycles": 1200,
	  "policy_profile": {"policies": ["static", "greedy"]}
	}`
	sub := postSpec(t, ts, spec)
	id := sub["id"].(string)
	st := waitDone(t, ts, id)
	if st.State != "done" {
		t.Fatalf("policy campaign state %q (error %q)", st.State, st.Error)
	}

	var rep campaign.PolicyReport
	getJSON(t, ts.URL+"/campaigns/"+id+"/policy", &rep)
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

	// The base records persist in the ordinary result store too.
	var recs []campaign.Record
	getJSON(t, ts.URL+"/campaigns/"+id+"/results", &recs)
	if len(recs) == 0 {
		t.Error("policy campaign persisted no records")
	}

	// A plain campaign has no policy report.
	plain := postSpec(t, ts, `{
	  "modes": ["tdm"], "patterns": ["ur"],
	  "meshes": [{"width": 4, "height": 4}],
	  "rates": [0.05], "seeds": [1],
	  "warmup_cycles": 100, "measure_cycles": 200
	}`)
	waitDone(t, ts, plain["id"].(string))
	resp, err := http.Get(ts.URL + "/campaigns/" + plain["id"].(string) + "/policy")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("policy endpoint on plain campaign: status %d, want 404", resp.StatusCode)
	}
}
