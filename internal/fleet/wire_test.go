package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"tdmnoc/internal/campaign"
	"tdmnoc/internal/obs"
	"tdmnoc/internal/stats"
)

// indentedJSON is what fleetJSON writes for v.
func indentedJSON(t *testing.T, v any) string {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestCompletionBodyMatchesEncodingJSON: the worker's completion body is
// json.Marshal's, and the handler's decode is the lenient
// json.Decoder's for canonical bodies and everything else.
func TestCompletionBodyMatchesEncodingJSON(t *testing.T) {
	recs := stubRecords(t, testSpec(), campaign.Shard{Index: 0, Size: 4})
	recs[1].Result = stats.RunRecord{Runs: 1, Cycles: 200, NetLatencySum: 1e-7, EnergyPJ: 12.5,
		DynamicPJ: map[string]float64{"link": 2, "buffer": 1}}
	recs[2].Err = "job timed out"
	for _, rs := range [][]campaign.Record{nil, {}, recs, append(recs[:1:1], campaign.Record{Key: "t", Telemetry: &obs.Summary{Steals: 3}})} {
		want, _ := json.Marshal(CompleteRequest{Records: rs})
		got, err := appendComplete(nil, rs)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("appendComplete = %s, %v\nwant %s", got, err, want)
		}
	}
	body, _ := appendComplete(nil, recs)
	if _, ok := cutRecords(body); !ok {
		t.Fatalf("cutRecords refuses appendComplete's body %s", body)
	}
	s := string(body)
	for _, b := range []string{
		s, strings.Replace(s, "timed out", "timed <out> & failed", 1), `{"records":null}`, `{"records":[]}`, "", " ", s + "trailing", " " + s, s[:len(s)-1], s[:len(s)/2],
		`{"worker":"w","added_later":1,"records":[{"key":"k","error":"boom","added_later":2}]}`,
		strings.Replace(s, `"records":[`, `"records": [`, 1),
		strings.Replace(s, `},{`, `}, {`, 1),
		strings.Replace(s, `]}`, `],"records":[]}`, 1),
		s[:len(s)-2] + `,{"key":"t","telemetry":{"steals":3}}]}`,
	} {
		var want CompleteRequest
		wantErr := json.NewDecoder(strings.NewReader(b)).Decode(&want)
		got, err := decodeComplete([]byte(b))
		if (err == nil) != (wantErr == nil) || err == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("decodeComplete(%q) = %+v, %v\nwant %+v, %v", b, got, err, want, wantErr)
		}
	}
}

// TestLeaseBodyMatchesEncodingJSON: the handler's lease body is
// fleetJSON's for the LeaseResponse, and the worker's decode, spec
// included, is json.Unmarshal's for it and for bodies it must leave to
// encoding/json.
func TestLeaseBodyMatchesEncodingJSON(t *testing.T) {
	c := newTestCoordinator(t, nil, Options{ShardSize: 3})
	spec := testSpec(0.05, 0.1, 0.15)
	spec.Name = "fig4 <quick> & \"co\""
	sub, err := c.Submit(SubmitRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if sub.SpecHash != spec.Hash() {
		t.Fatalf("spec hash %s, want Spec.Hash's %s", sub.SpecHash, spec.Hash())
	}
	l, leaseSpec, ok := c.lease()
	if !ok {
		t.Fatal("no lease")
	}
	body := string(appendLease(nil, l, leaseSpec))
	if want := indentedJSON(t, l); body != want {
		t.Fatalf("lease body differs from fleetJSON's:\n got %s\nwant %s", body, want)
	}
	if _, raw, err := decodeLease([]byte(body)); err != nil || !bytes.Equal(raw, leaseSpec) {
		t.Fatalf("decodeLease cuts %q, %v from appendLease's body, want the campaign's spec", raw, err)
	}
	compact, _ := json.Marshal(l)
	for _, b := range []string{
		body, string(compact), body[:len(body)/2], body + "x",
		strings.Replace(body, "\n  \"jobs\"", "\n  \"spec\": {\"name\": \"other\"},\n  \"jobs\"", 1),
		strings.Replace(body, "{\n  \"lease_id\"", "{\"spec\": {\"name\": \"first\"},\n  \"lease_id\"", 1),
		strings.Replace(body, "\n  \"jobs\"", "\n  \"added_later\": [1],\n  \"jobs\"", 1),
		strings.Replace(body, "\n  \"jobs\": 3", "\n  \"jobs\": \"3\"", 1),
	} {
		var want LeaseResponse
		wantErr := json.Unmarshal([]byte(b), &want)
		got, raw, err := decodeLease([]byte(b))
		if err == nil && raw != nil {
			err = json.Unmarshal(raw, &got.Spec)
		}
		if (err == nil) != (wantErr == nil) || err == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("decodeLease(%q) = %+v, %v\nwant %+v, %v", b, got, err, want, wantErr)
		}
	}
}

// TestResultsAndSummaryMatchEncodingJSON: /results, in both forms, and
// /summary serve the bytes encoding/json wrote for them.
func TestResultsAndSummaryMatchEncodingJSON(t *testing.T) {
	c := newTestCoordinator(t, nil, Options{ShardSize: 4})
	mux := http.NewServeMux()
	c.Register(mux)
	spec := testSpec(0.05, 0.1)
	sub, err := c.Submit(SubmitRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) string {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body)
		}
		return rec.Body.String()
	}
	base := "/fleet/campaigns/" + sub.ID
	if got, want := get(base+"/results"), indentedJSON(t, []campaign.Record(nil)); got != want {
		t.Fatalf("/results before any record = %q, want %q", got, want)
	}
	l, _ := c.Lease("w")
	recs := stubRecords(t, l.Spec, l.Shard)
	for i := range recs {
		recs[i].Result.NetLatencySum, recs[i].Result.EnergyPJ = 1.0/3+float64(i), 2.5e21
		recs[i].Result.StaticPJ = map[string]float64{"clock": 0.1, "buffer": 1e-9}
	}
	if _, err := c.Complete(l.LeaseID, recs); err != nil {
		t.Fatal(err)
	}
	served, _, _ := c.Records(sub.ID)
	if got, want := get(base+"/results"), indentedJSON(t, served); got != want {
		t.Errorf("/results:\n got %s\nwant %s", got, want)
	}
	var jsonl bytes.Buffer
	enc := json.NewEncoder(&jsonl)
	for _, r := range served {
		enc.Encode(r)
	}
	if got := get(base + "/results?format=jsonl"); got != jsonl.String() {
		t.Errorf("/results?format=jsonl:\n got %s\nwant %s", got, jsonl.String())
	}
	keys, agg := SummaryGroups(campaign.Aggregate(served, campaign.GroupWithoutSeed))
	type row struct {
		Group  string          `json:"group"`
		Result json.RawMessage `json:"result"`
	}
	var rows []row
	for _, k := range keys {
		b, _ := json.Marshal(agg[k])
		rows = append(rows, row{k, b})
	}
	if got, want := get(base+"/summary"), indentedJSON(t, rows); got != want {
		t.Errorf("/summary:\n got %s\nwant %s", got, want)
	}
}

// TestWorkerSpecCacheTwoCampaigns: one HTTP worker alternates leases of
// two campaigns whose specs differ only in their seeds — on two
// coordinators, so both are c0001 and their shards share lease ids, and
// only the spec bytes tell them apart. Every shard must derive its own
// campaign's jobs: each store ends holding exactly its campaign's keys.
func TestWorkerSpecCacheTwoCampaigns(t *testing.T) {
	specs := []campaign.Spec{seedSpec(11, 12, 13, 14, 15, 16), seedSpec(21, 22, 23, 24, 25, 26)}
	var coords []*Coordinator
	var muxes []*http.ServeMux
	for _, spec := range specs {
		c := newTestCoordinator(t, nil, Options{ShardSize: 1})
		if _, err := c.Submit(SubmitRequest{Spec: spec}); err != nil {
			t.Fatal(err)
		}
		mux := http.NewServeMux()
		c.Register(mux)
		coords, muxes = append(coords, c), append(muxes, mux)
	}

	// The proxy grants leases from the two coordinators in turn; renewals
	// and the completion go to the one that granted the worker's lease
	// (a one-slot worker holds one at a time).
	var mu sync.Mutex
	turn, holder, leases := 0, 0, [2]int{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if r.URL.Path != "/fleet/lease" {
			muxes[holder].ServeHTTP(w, r)
			return
		}
		for range muxes {
			k := turn % len(muxes)
			turn++
			rec := httptest.NewRecorder()
			muxes[k].ServeHTTP(rec, r)
			if rec.Code == http.StatusOK {
				holder = k
				leases[k]++
				w.WriteHeader(http.StatusOK)
				w.Write(rec.Body.Bytes())
				return
			}
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()

	w, err := NewWorker(WorkerOptions{Coordinator: srv.URL, Name: "alternating", Workers: 1, PollInterval: 5 * time.Millisecond,
		Runner: func(_ context.Context, j campaign.Job) (stats.RunRecord, *obs.Summary, error) {
			return stats.RunRecord{Runs: 1, Cycles: int64(j.Config.Seed)}, nil, nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); w.Run(ctx) }()
	for k, c := range coords {
		waitDone(t, c, "c0001")
		if st, _ := c.Status("c0001"); st.JobsFailed != 0 {
			t.Errorf("campaign %d: %d jobs failed, want 0 (a shard ran the other campaign's jobs)", k, st.JobsFailed)
		}
	}
	cancel()
	<-done
	if leases[0] != 6 || leases[1] != 6 {
		t.Fatalf("leases granted %v, want 6 from each coordinator", leases)
	}
	for k, spec := range specs {
		jobs, err := spec.Expand()
		if err != nil {
			t.Fatal(err)
		}
		store := coords[k].opt.Store
		found, missing := store.LookupAll(recordKeys(jobs))
		if missing != 0 || store.Len() != len(jobs) {
			t.Errorf("store %d holds %d records, %d of its campaign's %d keys missing", k, store.Len(), missing, len(jobs))
		}
		for i, r := range found {
			if want := int64(jobs[i].Config.Seed); r.Result.Cycles != want {
				t.Errorf("store %d: record %s ran seed %d, want %d", k, r.Key, r.Result.Cycles, want)
			}
		}
	}
	if n := len(w.specs.specs); n > 1 {
		t.Errorf("spec cache holds %d specs after the last shard, want at most the last one", n)
	}
}
