package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"tdmnoc/internal/campaign"
	"tdmnoc/internal/obs"
	"tdmnoc/internal/stats"
)

// TestFleetDeterminismAcrossWorkerDeath is the fabric's acceptance
// test: a spec distributed across a coordinator and multiple workers —
// one of which is killed mid-shard so its lease expires and the shard
// is re-issued — must produce merged per-group aggregates that are
// byte-identical to a single-process campaign.Engine run of the same
// spec, with zero duplicate records in the sharded store.
func TestFleetDeterminismAcrossWorkerDeath(t *testing.T) {
	spec := campaign.Spec{
		Modes:         []string{"tdm"},
		Patterns:      []string{"transpose"},
		Meshes:        []campaign.MeshSize{{Width: 4, Height: 4}},
		Rates:         []float64{0.05, 0.10},
		Seeds:         []uint64{1, 2, 3},
		WarmupCycles:  200,
		MeasureCycles: 400,
	}

	// Reference: single-process engine run, aggregated across seeds.
	refSpec := spec
	jobs, err := refSpec.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	eng := campaign.New(campaign.Options{Workers: 2})
	refRecs := eng.Run(context.Background(), jobs)
	for _, r := range refRecs {
		if r.Err != "" {
			t.Fatalf("reference job %s failed: %s", r.Label, r.Err)
		}
	}
	refJSON, err := json.Marshal(campaign.Aggregate(refRecs, campaign.GroupWithoutSeed))
	if err != nil {
		t.Fatal(err)
	}

	// Fleet: coordinator over a fresh sharded store, behind real HTTP.
	clock := newFakeClock()
	store, err := campaign.OpenShardedStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	coord, err := NewCoordinator(Options{
		Store:     store,
		ShardSize: 2, // 6 jobs -> 3 shards: enough to spread and steal
		LeaseTTL:  30 * time.Second,
		Now:       clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	coord.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	sub, err := coord.Submit(SubmitRequest{Tenant: "e2e", Spec: spec})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if sub.Jobs != len(jobs) || sub.Shards != 3 {
		t.Fatalf("submit = %+v, want %d jobs in 3 shards", sub, len(jobs))
	}

	// The victim worker leases a shard, "computes" (blocks), and is
	// killed before completing — the crash-mid-shard case.
	leased := make(chan struct{}, 1)
	blockingRunner := func(ctx context.Context, j campaign.Job) (stats.RunRecord, *obs.Summary, error) {
		select {
		case leased <- struct{}{}:
		default:
		}
		<-ctx.Done()
		return stats.RunRecord{}, nil, ctx.Err()
	}
	victim, err := NewWorker(WorkerOptions{
		Coordinator:  srv.URL,
		Name:         "victim",
		PollInterval: 10 * time.Millisecond,
		Runner:       blockingRunner,
	})
	if err != nil {
		t.Fatal(err)
	}
	vctx, vcancel := context.WithCancel(context.Background())
	victimDone := make(chan struct{})
	go func() {
		defer close(victimDone)
		victim.Run(vctx)
	}()
	select {
	case <-leased:
	case <-time.After(10 * time.Second):
		t.Fatal("victim never leased a shard")
	}
	vcancel()
	<-victimDone
	if m := coord.Metrics(); m.LeasesActive != 1 {
		t.Fatalf("after victim death: LeasesActive = %d, want 1 (orphaned lease)", m.LeasesActive)
	}

	// Let the orphaned lease expire, then let two honest workers drain
	// the campaign — including the re-issued shard.
	clock.Advance(31 * time.Second)
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	for _, name := range []string{"w1", "w2"} {
		w, err := NewWorker(WorkerOptions{
			Coordinator:  srv.URL,
			Name:         name,
			Workers:      2,
			PollInterval: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		go w.Run(wctx)
	}
	deadline := time.Now().Add(120 * time.Second)
	for {
		st, ok := coord.Status(sub.ID)
		if !ok {
			t.Fatal("campaign vanished")
		}
		if st.State == "done" {
			if st.JobsFailed != 0 {
				t.Fatalf("campaign done with %d failed jobs", st.JobsFailed)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign did not finish: %+v (metrics %+v)", st, coord.Metrics())
		}
		time.Sleep(20 * time.Millisecond)
	}
	wcancel()
	coord.WaitCompactions()

	m := coord.Metrics()
	if m.LeasesExpired == 0 {
		t.Error("expected the victim's lease to expire and be re-issued")
	}
	// Zero duplicates in the store: every record landed exactly once.
	if store.Len() != len(jobs) {
		t.Errorf("store holds %d records, want %d", store.Len(), len(jobs))
	}
	if d := store.Dead(); d != 0 {
		t.Errorf("store has %d dead (duplicate) lines, want 0", d)
	}

	// The core contract: merged aggregates byte-identical to the
	// single-process run.
	agg, ok := coord.Summary(sub.ID)
	if !ok {
		t.Fatal("no summary")
	}
	gotJSON, err := json.Marshal(agg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, refJSON) {
		t.Fatalf("fleet aggregates differ from single-process engine:\nfleet:  %s\nserial: %s", gotJSON, refJSON)
	}

	// And the store round-trips: a fresh process reloading the shard
	// files reconstructs the identical merged aggregates.
	reloaded, err := campaign.OpenShardedStore(store.Dir())
	if err != nil {
		t.Fatalf("reload store: %v", err)
	}
	defer reloaded.Close()
	found, missing := reloaded.LookupAll(recordKeys(jobs))
	if missing != 0 {
		t.Fatalf("reloaded store missing %d records", missing)
	}
	reloadJSON, err := json.Marshal(campaign.Aggregate(found, campaign.GroupWithoutSeed))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reloadJSON, refJSON) {
		t.Fatalf("reloaded aggregates differ from single-process engine:\nreload: %s\nserial: %s", reloadJSON, refJSON)
	}
}

func recordKeys(jobs []campaign.Job) []string {
	keys := make([]string, len(jobs))
	for i, j := range jobs {
		keys[i] = j.Key
	}
	return keys
}

// TestWorkerDrainFinishesCurrentShard verifies the graceful half of
// worker shutdown: Drain lets the in-flight shard complete and post
// before the run loop exits.
func TestWorkerDrainFinishesCurrentShard(t *testing.T) {
	store, err := campaign.OpenShardedStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	coord, err := NewCoordinator(Options{Store: store, ShardSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	coord.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	spec := testSpec() // 4 jobs -> one shard of 4
	sub, err := coord.Submit(SubmitRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}

	started := make(chan struct{}, 1)
	var w *Worker
	slowRunner := func(ctx context.Context, j campaign.Job) (stats.RunRecord, *obs.Summary, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		return stats.RunRecord{Runs: 1}, nil, nil
	}
	w, err = NewWorker(WorkerOptions{
		Coordinator:  srv.URL,
		Name:         "drainer",
		Workers:      1,
		PollInterval: 10 * time.Millisecond,
		Runner:       slowRunner,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(context.Background())
	}()
	<-started
	w.Drain()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("worker did not exit after Drain")
	}
	st, _ := coord.Status(sub.ID)
	if st.State != "done" {
		t.Fatalf("campaign state after drained worker = %q, want done (in-flight shard must land)", st.State)
	}
	if w.ShardsDone.Load() != 1 {
		t.Fatalf("ShardsDone = %d, want 1", w.ShardsDone.Load())
	}
}

// TestFleetRunsMixSpec: a Section V mix is a job like any other, so a
// two-mix spec submitted over HTTP fans out across two workers and its
// /summary is byte-identical to campaign.Aggregate over a local engine
// run. A mix the simulator would refuse is a 400 at submit, before any
// shard exists.
func TestFleetRunsMixSpec(t *testing.T) {
	spec := campaign.Spec{
		Modes:         []string{"packet", "tdm"},
		Patterns:      []string{"mix:EQUAKE+LPS", "mix:ART+STO"},
		Seeds:         []uint64{1, 2},
		PathSharing:   true,
		VCPowerGating: true,
		WarmupCycles:  200,
		MeasureCycles: 600,
	}
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	local := campaign.New(campaign.Options{Workers: 2}).Run(context.Background(), jobs)
	want := campaign.Aggregate(local, campaign.GroupWithoutSeed)
	if len(jobs) != 8 || len(want) != 4 {
		t.Fatalf("local run: %d jobs in %d groups, want 8 in 4", len(jobs), len(want))
	}

	store, err := campaign.OpenShardedStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	coord, err := NewCoordinator(Options{Store: store, ShardSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	coord.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	post := func(s campaign.Spec) (int, SubmitResponse) {
		t.Helper()
		body, err := json.Marshal(SubmitRequest{Tenant: "mix", Spec: s})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/fleet/campaigns", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sub SubmitResponse
		json.NewDecoder(resp.Body).Decode(&sub) // an error body leaves sub zero
		return resp.StatusCode, sub
	}

	for name, mutate := range map[string]func(*campaign.Spec){
		"unknown GPU kernel": func(s *campaign.Spec) { s.Patterns = []string{"mix:EQUAKE+NOPE"} },
		"sdm":                func(s *campaign.Spec) { s.Modes = []string{"sdm"} },
		"2x2 mesh":           func(s *campaign.Spec) { s.Meshes = []campaign.MeshSize{{Width: 2, Height: 2}} },
	} {
		bad := spec
		mutate(&bad)
		if code, _ := post(bad); code != http.StatusBadRequest {
			t.Errorf("%s: submit status %d, want 400", name, code)
		}
	}
	if n := len(coord.Statuses()); n != 0 {
		t.Fatalf("refused specs left %d campaigns behind", n)
	}

	code, sub := post(spec)
	if code != http.StatusAccepted || sub.Jobs != 8 || sub.Shards != 8 {
		t.Fatalf("submit: status %d, %+v; want 202 with 8 jobs in 8 shards", code, sub)
	}
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	workers := make([]*Worker, 2)
	for i := range workers {
		w, err := NewWorker(WorkerOptions{Coordinator: srv.URL, Name: fmt.Sprintf("w%d", i), Workers: 1, PollInterval: 5 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = w
		go w.Run(wctx)
	}
	for deadline := time.Now().Add(120 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		st, _ := coord.Status(sub.ID)
		if st.State == "done" {
			if st.JobsFailed != 0 {
				t.Fatalf("campaign done with %d failed jobs", st.JobsFailed)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign did not finish: %+v", st)
		}
	}
	wcancel()
	if a, b := workers[0].ShardsDone.Load(), workers[1].ShardsDone.Load(); a+b != 8 {
		t.Errorf("workers completed %d + %d shards, want 8 between them", a, b)
	}

	resp, err := http.Get(srv.URL + "/fleet/campaigns/" + sub.ID + "/summary")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rows []struct {
		Group  string          `json:"group"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil || len(rows) != len(want) {
		t.Fatalf("summary: %d rows, error %v; want %d rows", len(rows), err, len(want))
	}
	for _, row := range rows {
		ref, ok := want[row.Group]
		if !ok || ref.Runs != 2 || ref.CPUInstructions == 0 || len(ref.DynamicPJ) != 6 {
			t.Fatalf("group %q: local aggregate %+v (found %v) is not a two-seed mix record", row.Group, ref, ok)
		}
		wantJSON, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := json.Compact(&got, row.Result); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), wantJSON) {
			t.Errorf("group %q: fleet summary differs from the local aggregate:\nfleet: %s\nlocal: %s", row.Group, got.Bytes(), wantJSON)
		}
	}
}
