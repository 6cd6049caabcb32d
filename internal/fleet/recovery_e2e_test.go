package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"tdmnoc/internal/campaign"
	"tdmnoc/internal/obs"
	"tdmnoc/internal/stats"
)

// TestFleetDeterminismAcrossCoordinatorRestart is the tentpole's
// acceptance test: a campaign is killed with its coordinator mid-sweep
// — workers holding leases, shards queued, completes already landed —
// and a new coordinator replaying the journal over the same store must
// finish the campaign with merged aggregates byte-identical to a
// single-process engine run, with zero duplicate lines in the store and
// zero lost work. The workers never stop: they retry through the outage
// exactly as a real fleet rides out a coordinator restart.
func TestFleetDeterminismAcrossCoordinatorRestart(t *testing.T) {
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

	// The "process boundary": workers talk to a fixed URL whose handler
	// forwards to whichever coordinator mux is live. Storing nil is the
	// kill — requests get 502 (a transport-layer-equivalent failure the
	// workers retry) until the restarted coordinator's mux is stored.
	var target atomic.Pointer[http.ServeMux]
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		m := target.Load()
		if m == nil {
			http.Error(w, "coordinator down", http.StatusBadGateway)
			return
		}
		m.ServeHTTP(w, r)
	}))
	defer srv.Close()

	dir := t.TempDir()
	journal := filepath.Join(dir, "fleet.journal")
	storeDir := filepath.Join(dir, "store")
	newCoord := func(ss *campaign.ShardedStore) *Coordinator {
		t.Helper()
		c, err := NewCoordinator(Options{
			Store:     ss,
			ShardSize: 2, // 6 jobs -> 3 shards
			LeaseTTL:  30 * time.Second,
			Journal:   journal,
		})
		if err != nil {
			t.Fatalf("NewCoordinator: %v", err)
		}
		return c
	}
	store1, err := campaign.OpenShardedStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	coord1 := newCoord(store1)
	mux1 := http.NewServeMux()
	coord1.Register(mux1)
	target.Store(mux1)

	sub, err := coord1.Submit(SubmitRequest{Spec: spec})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}

	// Gate the workers' runner so the kill provably lands mid-sweep:
	// jobs block at the gate until released, which freezes the fleet
	// with leases granted and shards in flight.
	gate := make(chan struct{})
	running := make(chan string, 16)
	gatedRunner := func(ctx context.Context, j campaign.Job) (stats.RunRecord, *obs.Summary, error) {
		select {
		case running <- j.Key:
		default:
		}
		select {
		case <-gate:
		case <-ctx.Done():
			return stats.RunRecord{}, nil, ctx.Err()
		}
		return campaign.Simulate(ctx, j)
	}
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	for _, name := range []string{"w1", "w2"} {
		w, err := NewWorker(WorkerOptions{
			Coordinator:  srv.URL,
			Name:         name,
			Workers:      1,
			PollInterval: 10 * time.Millisecond,
			Runner:       gatedRunner,
		})
		if err != nil {
			t.Fatal(err)
		}
		go w.Run(wctx)
	}

	// Wait until both workers hold leases and sit at the gate.
	for i := 0; i < 2; i++ {
		select {
		case <-running:
		case <-time.After(10 * time.Second):
			t.Fatal("workers never started jobs")
		}
	}
	if m := coord1.Metrics(); m.LeasesActive != 2 {
		t.Fatalf("LeasesActive = %d before kill, want 2", m.LeasesActive)
	}

	// Kill: unpublish the mux, let in-flight handlers on the old
	// coordinator finish, and abandon it without any shutdown — the
	// journal must already hold everything. Only then open a second
	// store handle over the same files (so the old handle's appends are
	// all visible and no concurrent-writer duplicates arise) and replay.
	target.Store(nil)
	time.Sleep(300 * time.Millisecond)
	coord1.WaitCompactions()
	store1.Close()

	close(gate) // workers resume; their renews/completes hit 502 and retry

	store2, err := campaign.OpenShardedStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	coord2 := newCoord(store2)
	if coord2.Recovered() == 0 {
		t.Fatal("restarted coordinator replayed no journal records")
	}
	if st, ok := coord2.Status(sub.ID); !ok {
		t.Fatal("campaign lost across restart")
	} else if st.Jobs != len(jobs) {
		t.Fatalf("recovered campaign has %d jobs, want %d", st.Jobs, len(jobs))
	}
	mux2 := http.NewServeMux()
	coord2.Register(mux2)
	target.Store(mux2)

	deadline := time.Now().Add(120 * time.Second)
	for {
		st, ok := coord2.Status(sub.ID)
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
			t.Fatalf("campaign did not finish after restart: %+v (metrics %+v)", st, coord2.Metrics())
		}
		time.Sleep(20 * time.Millisecond)
	}
	wcancel()
	coord2.WaitCompactions()

	// Zero lost and zero duplicated work.
	if store2.Len() != len(jobs) {
		t.Errorf("store holds %d records, want %d", store2.Len(), len(jobs))
	}
	if d := store2.Dead(); d != 0 {
		t.Errorf("store has %d dead (duplicate) lines, want 0", d)
	}

	// The determinism contract holds across the kill-restart: merged
	// aggregates byte-identical to the single-process run.
	agg, ok := coord2.Summary(sub.ID)
	if !ok {
		t.Fatal("no summary")
	}
	gotJSON, err := json.Marshal(agg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, refJSON) {
		t.Fatalf("post-restart aggregates differ from single-process engine:\nfleet:  %s\nserial: %s", gotJSON, refJSON)
	}
	if err := coord2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestFleetCancelSurvivesCoordinatorRestart: a campaign cancelled over
// HTTP while two workers hold leases, then killed with its coordinator,
// comes back cancelled from the journal: nothing re-queues the workers'
// in-flight shards, which land against the restarted coordinator, the
// shards that were queued never run, and a resubmit of the spec serves the landed shards from
// the store, runs the rest, and aggregates byte-identically to a
// single-process engine run.
func TestFleetCancelSurvivesCoordinatorRestart(t *testing.T) {
	spec := campaign.Spec{
		Modes:         []string{"tdm"},
		Patterns:      []string{"transpose"},
		Meshes:        []campaign.MeshSize{{Width: 4, Height: 4}},
		Rates:         []float64{0.05, 0.10},
		Seeds:         []uint64{1, 2, 3},
		WarmupCycles:  200,
		MeasureCycles: 400,
	}
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	refJSON, err := json.Marshal(campaign.Aggregate(campaign.New(campaign.Options{Workers: 2}).Run(context.Background(), jobs), campaign.GroupWithoutSeed))
	if err != nil {
		t.Fatal(err)
	}

	var target atomic.Pointer[http.ServeMux]
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if m := target.Load(); m != nil {
			m.ServeHTTP(w, r)
			return
		}
		http.Error(w, "coordinator down", http.StatusBadGateway)
	}))
	defer srv.Close()
	dir := t.TempDir()
	open := func() (*Coordinator, *campaign.ShardedStore) {
		t.Helper()
		ss, err := campaign.OpenShardedStore(filepath.Join(dir, "store"))
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewCoordinator(Options{Store: ss, ShardSize: 1, LeaseTTL: 30 * time.Second, Journal: filepath.Join(dir, "fleet.journal")})
		if err != nil {
			t.Fatalf("NewCoordinator: %v", err)
		}
		mux := http.NewServeMux()
		c.Register(mux)
		target.Store(mux)
		return c, ss
	}
	coord1, store1 := open()
	sub, err := coord1.Submit(SubmitRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}

	gate := make(chan struct{})
	running := make(chan string, 16)
	gatedRunner := func(ctx context.Context, j campaign.Job) (stats.RunRecord, *obs.Summary, error) {
		select {
		case running <- j.Key:
		default:
		}
		select {
		case <-gate:
		case <-ctx.Done():
			return stats.RunRecord{}, nil, ctx.Err()
		}
		return campaign.Simulate(ctx, j)
	}
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	for _, name := range []string{"w1", "w2"} {
		w, err := NewWorker(WorkerOptions{Coordinator: srv.URL, Name: name, Workers: 1, PollInterval: 10 * time.Millisecond, Runner: gatedRunner})
		if err != nil {
			t.Fatal(err)
		}
		go w.Run(wctx)
	}
	for i := 0; i < 2; i++ {
		select {
		case <-running:
		case <-time.After(10 * time.Second):
			t.Fatal("workers never started jobs")
		}
	}

	resp, err := http.Post(srv.URL+"/fleet/campaigns/"+sub.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var st CampaignStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || st.State != "cancelled" || st.ShardsLeased != 2 {
		t.Fatalf("cancel answered %+v (err %v), want cancelled with both leases in flight", st, err)
	}

	// Kill, then restart on the journal; the workers' renewals retry
	// through the outage, and their jobs finish once it is over.
	target.Store(nil)
	time.Sleep(300 * time.Millisecond)
	coord1.WaitCompactions()
	store1.Close()
	coord2, store2 := open()
	defer store2.Close()
	close(gate)

	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		st, _ = coord2.Status(sub.ID)
		if st.ShardsDone == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("in-flight shards never landed after restart: %+v", st)
		}
	}
	if st.State != "cancelled" || st.ShardsDone != 2 || store2.Len() != 2 {
		t.Fatalf("after restart: %+v with %d records, want cancelled with exactly the 2 in-flight shards landed", st, store2.Len())
	}
	if m := coord2.Metrics(); m.QueueDepth != 0 || m.Outstanding != 0 {
		t.Fatalf("after restart: %+v, want nothing queued or in flight", m)
	}

	again, err := coord2.Submit(SubmitRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if again.CachedShards != 2 {
		t.Fatalf("resubmit cached %d shards, want the 2 that landed", again.CachedShards)
	}
	for deadline := time.Now().Add(120 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if st, _ = coord2.Status(again.ID); st.State == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("resubmitted campaign did not finish: %+v", st)
		}
	}
	wcancel()
	coord2.WaitCompactions()
	agg, _ := coord2.Summary(again.ID)
	gotJSON, err := json.Marshal(agg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, refJSON) {
		t.Fatalf("resumed aggregates differ from single-process engine:\nfleet:  %s\nserial: %s", gotJSON, refJSON)
	}
	if d := store2.Dead(); d != 0 {
		t.Errorf("store has %d dead lines, want 0", d)
	}
	coord2.Close()
}
