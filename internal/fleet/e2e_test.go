package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
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

	sub, err := coord.Submit(SubmitRequest{Spec: spec})
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

// seedSpec is one job per seed, so a job's seed is its position in the
// grid.
func seedSpec(seeds ...uint64) campaign.Spec {
	spec := testSpec(0.05)
	spec.Seeds = seeds
	return spec
}

// runLocal runs an in-process worker on coord until the returned stop
// function is called; stop waits for it to exit, as does a receive from
// done.
func runLocal(coord *Coordinator, opt WorkerOptions) (w *Worker, done <-chan struct{}, stop func()) {
	opt.PollInterval = 5 * time.Millisecond
	w = NewLocalWorker(coord, opt)
	ctx, cancel := context.WithCancel(context.Background())
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		w.Run(ctx)
	}()
	return w, exited, func() { cancel(); <-exited }
}

// TestWorkerKeepsSlotsBusyAcrossShards: a worker's Workers bound spans
// shards. With more slots than a shard has jobs it holds several leases
// at once, and while a shard's last job runs it leases the next shard
// into the idle slot. Each case's runner blocks a job until the job it
// names is running beside it, so a worker that ran one shard at a time
// fails the jobs with a timeout.
func TestWorkerKeepsSlotsBusyAcrossShards(t *testing.T) {
	cases := []struct {
		name             string
		shardSize, slots int
		seeds            []uint64
		waitFor          func(seed uint64) int // running jobs the job waits for
	}{
		// Three one-job shards on three slots: every job waits until all
		// three run at once.
		{"more slots than a shard", 1, 3, []uint64{1, 2, 3}, func(uint64) int { return 3 }},
		// Shards {1,2,3} and {4} on two slots: job 3, its shard's last,
		// runs alone unless job 4's shard is leased beside it.
		{"shard tail", 3, 2, []uint64{1, 2, 3, 4}, func(s uint64) int { return map[uint64]int{3: 2}[s] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			coord := newTestCoordinator(t, nil, Options{ShardSize: tc.shardSize})
			var running atomic.Int64
			runner := func(ctx context.Context, j campaign.Job) (stats.RunRecord, *obs.Summary, error) {
				running.Add(1)
				defer running.Add(-1)
				for deadline := time.Now().Add(10 * time.Second); running.Load() < int64(tc.waitFor(j.Config.Seed)); time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						return stats.RunRecord{}, nil, fmt.Errorf("job %d ran without %d jobs beside it", j.Config.Seed, tc.waitFor(j.Config.Seed)-1)
					}
				}
				time.Sleep(20 * time.Millisecond) // long enough for the others to see this one
				return stats.RunRecord{Runs: 1}, nil, nil
			}
			sub, err := coord.Submit(SubmitRequest{Spec: seedSpec(tc.seeds...)})
			if err != nil {
				t.Fatal(err)
			}
			_, _, stop := runLocal(coord, WorkerOptions{Workers: tc.slots, Runner: runner})
			defer stop()
			st := waitDone(t, coord, sub.ID)
			if st.JobsFailed != 0 {
				t.Fatalf("%d jobs failed: the worker left slots idle", st.JobsFailed)
			}
		})
	}
}

func waitDone(t *testing.T, coord *Coordinator, id string) CampaignStatus {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if st, _ := coord.Status(id); st.State == "done" {
			return st
		}
	}
	t.Fatalf("campaign %s did not finish", id)
	return CampaignStatus{}
}

// TestLocalWorkerDrainKeepsFinishedJobs: an in-process worker persists
// each job as it finishes, so Drain waits only for the running job, and
// after a restart (a new coordinator over the same store) a resubmit
// runs only the jobs the drain skipped.
func TestLocalWorkerDrainKeepsFinishedJobs(t *testing.T) {
	dir := t.TempDir()
	spec := seedSpec(1, 2, 3, 4, 5, 6) // one shard of six
	store, err := campaign.OpenShardedStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(Options{Store: store, ShardSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := coord.Submit(SubmitRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	third, release := make(chan struct{}), make(chan struct{})
	runner := func(ctx context.Context, j campaign.Job) (stats.RunRecord, *obs.Summary, error) {
		if j.Config.Seed == 3 {
			close(third)
			<-release
		}
		return stats.RunRecord{Runs: 1}, nil, nil
	}
	w, done, _ := runLocal(coord, WorkerOptions{Workers: 1, Runner: runner})
	<-third
	coord.Drain()
	w.Drain()
	close(release)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not exit after Drain")
	}
	if st, _ := coord.Status(sub.ID); st.ShardsDone != 0 {
		t.Fatalf("drained shard settled: %+v", st)
	}
	if w.ShardsDone.Load() != 0 || w.ShardsFailed.Load() != 0 {
		t.Fatalf("drained shard counted: done %d, failed %d", w.ShardsDone.Load(), w.ShardsFailed.Load())
	}
	if got := store.Len(); got != 3 {
		t.Fatalf("store holds %d records after the drain, want the 3 finished jobs", got)
	}
	store.Close()

	store, err = campaign.OpenShardedStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	coord, err = NewCoordinator(Options{Store: store, ShardSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	sub, err = coord.Submit(SubmitRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int64
	counting := func(ctx context.Context, j campaign.Job) (stats.RunRecord, *obs.Summary, error) {
		ran.Add(1)
		return stats.RunRecord{Runs: 1}, nil, nil
	}
	_, _, stop := runLocal(coord, WorkerOptions{Workers: 2, Runner: counting})
	defer stop()
	if st := waitDone(t, coord, sub.ID); st.JobsFailed != 0 {
		t.Fatalf("resumed campaign: %+v", st)
	}
	if ran.Load() != 3 {
		t.Fatalf("resume ran %d jobs, want the 3 the drain skipped", ran.Load())
	}
	if m := coord.Metrics(); m.RecordsPersisted != 3 || m.RecordsDuplicate != 0 {
		t.Fatalf("persisted %d, duplicate %d; want 3 and 0 (the worker's own writes are no duplicates)", m.RecordsPersisted, m.RecordsDuplicate)
	}
}

// TestCompleteToleratesUnknownFields: only the submit is strict about
// unknown fields. A completion from a worker one version ahead, whose
// records carry a field this coordinator lacks, still lands.
func TestCompleteToleratesUnknownFields(t *testing.T) {
	coord := newTestCoordinator(t, nil, Options{ShardSize: 4})
	mux := http.NewServeMux()
	coord.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	if _, err := coord.Submit(SubmitRequest{Spec: testSpec()}); err != nil {
		t.Fatal(err)
	}
	l, ok := coord.Lease("w")
	if !ok {
		t.Fatal("no lease")
	}
	body := `{"worker":"w","added_later":1,"records":[{"key":"k","error":"boom","added_later":2}]}`
	resp, err := http.Post(srv.URL+"/fleet/leases/"+l.LeaseID+"/complete", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("complete with unknown fields: status %d, want 200", resp.StatusCode)
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
		body, err := json.Marshal(SubmitRequest{Spec: s})
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
	// A worker counts its shard once the completion's response is back,
	// which can be after the campaign reads done.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		a, b := workers[0].ShardsDone.Load(), workers[1].ShardsDone.Load()
		if a+b == 8 {
			break
		}
		if a+b > 8 || time.Now().After(deadline) {
			t.Fatalf("workers completed %d + %d shards, want 8 between them", a, b)
		}
	}
	wcancel()

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

// TestFleetRunsPolicySpec: a policy study is an ordinary campaign, so a
// coordinator and two workers run it shard by shard — both waves of a
// shard inside its one lease — and both the report computed from
// /results and the one /policy serves (409 until the campaign is done)
// equal the report of a local RunSpec. Job accounting counts the
// records the shards posted (both waves), the profiling runs' summaries
// reach /timeline and the coordinator's telemetry fold across HTTP, and
// a resubmit fast-completes every shard from the wave-1 records and the
// wave-2 records derived from them.
func TestFleetRunsPolicySpec(t *testing.T) {
	spec := campaign.Spec{
		Modes:         []string{"tdm"},
		Patterns:      []string{"tornado", "transpose"},
		Meshes:        []campaign.MeshSize{{Width: 4, Height: 4}},
		Rates:         []float64{0.15},
		Seeds:         []uint64{1, 2},
		WarmupCycles:  300,
		MeasureCycles: 1200,
		PolicyProfile: &campaign.PolicyProfileSpec{Policies: []string{"static", "threshold", "greedy"}},
	}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	grid, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	local := campaign.New(campaign.Options{Workers: 2}).RunSpec(context.Background(), spec, grid)
	want, err := json.Marshal(spec.Report(grid, local))
	if err != nil {
		t.Fatal(err)
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

	sub, err := coord.Submit(SubmitRequest{Spec: spec})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if sub.Jobs != len(grid) || sub.Shards != len(grid) {
		t.Fatalf("submit = %+v, want %d grid points in as many shards", sub, len(grid))
	}
	getBody := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}
	if code, _ := getBody("/fleet/campaigns/" + sub.ID + "/policy"); code != http.StatusConflict {
		t.Errorf("/policy of an unfinished campaign: status %d, want 409", code)
	}
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	for i := 0; i < 2; i++ {
		w, err := NewWorker(WorkerOptions{Coordinator: srv.URL, Name: fmt.Sprintf("w%d", i), Workers: 1, PollInterval: 5 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
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
	if m := coord.Metrics(); m.JobsCompleted != int64(len(local)) || m.StoreLive != len(local) {
		t.Errorf("jobs completed %d, live records %d; want the %d records of both waves", m.JobsCompleted, m.StoreLive, len(local))
	}

	resp, err := http.Get(srv.URL + "/fleet/campaigns/" + sub.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	var fetched []campaign.Record
	err = json.NewDecoder(resp.Body).Decode(&fetched)
	resp.Body.Close()
	if err != nil || len(fetched) != len(local) || resp.Header.Get("X-Fleet-Missing") != "0" {
		t.Fatalf("results: %d records (error %v, missing %s), want %d", len(fetched), err, resp.Header.Get("X-Fleet-Missing"), len(local))
	}
	found := map[string]campaign.Record{}
	for _, r := range fetched {
		found[r.Key] = r
	}
	got, err := json.Marshal(spec.Report(grid, spec.Resolve(grid, func(k string) (campaign.Record, bool) {
		r, ok := found[k]
		return r, ok
	})))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("fleet report differs from the local one:\nfleet: %s\nlocal: %s", got, want)
	}
	code, body := getBody("/fleet/campaigns/" + sub.ID + "/policy")
	var served bytes.Buffer
	if code != http.StatusOK || json.Compact(&served, body) != nil || !bytes.Equal(served.Bytes(), want) {
		t.Errorf("/policy (status %d) differs from the local report:\nserved: %s\nlocal:  %s", code, body, want)
	}

	profiled := 0
	for _, r := range local {
		if r.Telemetry != nil {
			profiled++
		}
	}
	var timeline []json.RawMessage
	if code, body := getBody("/fleet/campaigns/" + sub.ID + "/timeline"); code != http.StatusOK || json.Unmarshal(body, &timeline) != nil || len(timeline) != profiled {
		t.Errorf("/timeline: status %d, %d rows, want one per profiling run (%d)", code, len(timeline), profiled)
	}
	if m := coord.Metrics(); profiled == 0 || m.Telemetry.Jobs != int64(profiled) || m.Telemetry.SetupLatency.Total == 0 {
		t.Errorf("telemetry fold over remote workers = %+v, want %d jobs with setups observed", m.Telemetry, profiled)
	}

	again, err := coord.Submit(SubmitRequest{Spec: spec})
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if again.CachedShards != again.Shards {
		t.Errorf("resubmit fast-completed %d of %d shards, want all", again.CachedShards, again.Shards)
	}
}
