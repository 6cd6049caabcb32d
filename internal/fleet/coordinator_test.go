package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tdmnoc/internal/campaign"
	"tdmnoc/internal/stats"
)

// fakeClock drives lease expiry deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// testSpec is a tiny 4-job grid (2 rates x 2 seeds).
func testSpec(rates ...float64) campaign.Spec {
	if len(rates) == 0 {
		rates = []float64{0.05, 0.10}
	}
	return campaign.Spec{
		Modes:         []string{"tdm"},
		Patterns:      []string{"transpose"},
		Meshes:        []campaign.MeshSize{{Width: 4, Height: 4}},
		Rates:         rates,
		Seeds:         []uint64{1, 2},
		WarmupCycles:  100,
		MeasureCycles: 200,
	}
}

// stubRecords fabricates completion records for a shard without
// simulating anything.
func stubRecords(t *testing.T, spec campaign.Spec, shard campaign.Shard) []campaign.Record {
	t.Helper()
	jobs, err := spec.ShardJobs(shard.Index, shard.Size)
	if err != nil {
		t.Fatalf("ShardJobs: %v", err)
	}
	recs := make([]campaign.Record, len(jobs))
	for i, j := range jobs {
		recs[i] = campaign.Record{Key: j.Key, Label: j.Label, Rate: j.Rate, Result: stats.RunRecord{Runs: 1}}
	}
	return recs
}

func newTestCoordinator(t *testing.T, clock *fakeClock, opt Options) *Coordinator {
	t.Helper()
	if opt.Store == nil {
		ss, err := campaign.OpenShardedStore(t.TempDir())
		if err != nil {
			t.Fatalf("OpenShardedStore: %v", err)
		}
		t.Cleanup(func() { ss.Close() })
		opt.Store = ss
	}
	if opt.ShardSize == 0 {
		opt.ShardSize = 2
	}
	if opt.LeaseTTL == 0 {
		opt.LeaseTTL = 30 * time.Second
	}
	if clock != nil {
		opt.Now = clock.Now
	}
	c, err := NewCoordinator(opt)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	return c
}

func TestSubmitExpandAndShard(t *testing.T) {
	c := newTestCoordinator(t, nil, Options{})
	resp, err := c.Submit(SubmitRequest{Spec: testSpec()})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if resp.Jobs != 4 || resp.Shards != 2 || resp.CachedShards != 0 {
		t.Fatalf("got jobs=%d shards=%d cached=%d, want 4/2/0", resp.Jobs, resp.Shards, resp.CachedShards)
	}
	st, ok := c.Status(resp.ID)
	if !ok || st.State != "running" || st.Jobs != 4 {
		t.Fatalf("status = %+v, ok=%v", st, ok)
	}
	if m := c.Metrics(); m.QueueDepth != 2 || m.Outstanding != 4 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestLeaseCompleteLifecycle(t *testing.T) {
	clock := newFakeClock()
	c := newTestCoordinator(t, clock, Options{})
	spec := testSpec()
	resp, err := c.Submit(SubmitRequest{Spec: spec})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	for i := 0; i < resp.Shards; i++ {
		l, ok := c.Lease("w1")
		if !ok {
			t.Fatalf("lease %d: no work", i)
		}
		if l.Jobs != 2 {
			t.Fatalf("lease = %+v", l)
		}
		cr, err := c.Complete(l.LeaseID, stubRecords(t, spec, l.Shard))
		if err != nil {
			t.Fatalf("Complete: %v", err)
		}
		if cr.Persisted != 2 || cr.Duplicates != 0 || cr.Failed != 0 {
			t.Fatalf("complete = %+v", cr)
		}
	}
	if _, ok := c.Lease("w1"); ok {
		t.Fatal("lease after completion: expected no work")
	}
	st, _ := c.Status(resp.ID)
	if st.State != "done" || st.ShardsDone != 2 {
		t.Fatalf("status = %+v", st)
	}
	m := c.Metrics()
	if m.JobsCompleted != 4 || m.RecordsPersisted != 4 || m.LeasesActive != 0 || m.Outstanding != 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestLeaseExpiryRequeuesAndLateCompletionWins(t *testing.T) {
	clock := newFakeClock()
	c := newTestCoordinator(t, clock, Options{})
	spec := testSpec()
	if _, err := c.Submit(SubmitRequest{Spec: spec}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	dead, ok := c.Lease("doomed")
	if !ok {
		t.Fatal("no lease")
	}
	clock.Advance(31 * time.Second)

	// The next lease call sweeps; the doomed shard comes back first.
	stolen, ok := c.Lease("thief")
	if !ok {
		t.Fatal("no re-lease after expiry")
	}
	if stolen.Shard.Index != dead.Shard.Index {
		t.Fatalf("re-lease got shard %d, want expired shard %d", stolen.Shard.Index, dead.Shard.Index)
	}
	if m := c.Metrics(); m.LeasesExpired != 1 {
		t.Fatalf("LeasesExpired = %d, want 1", m.LeasesExpired)
	}

	// The doomed worker was only slow, not dead: its late completion is
	// accepted and the thief's racing lease is retired.
	if _, err := c.Complete(dead.LeaseID, stubRecords(t, spec, dead.Shard)); err != nil {
		t.Fatalf("late Complete: %v", err)
	}
	if m := c.Metrics(); m.LeasesActive != 0 {
		t.Fatalf("racing lease not retired: %+v", m)
	}
	// The thief finishes anyway; its records dedup to zero writes.
	cr, err := c.Complete(stolen.LeaseID, stubRecords(t, spec, stolen.Shard))
	if err != nil {
		t.Fatalf("thief Complete: %v", err)
	}
	if cr.Persisted != 0 || cr.Duplicates != 2 {
		t.Fatalf("thief complete = %+v, want all duplicates", cr)
	}
	if d := c.opt.Store.Dead(); d != 0 {
		t.Fatalf("store has %d dead lines; duplicate completions must not persist", d)
	}
}

// TestCompleteUnknownLease: a lease id that is not exactly the id of a
// shard of a known campaign is unknown: 404 on complete, 410 on renew.
func TestCompleteUnknownLease(t *testing.T) {
	c := newTestCoordinator(t, nil, Options{})
	if _, err := c.Submit(SubmitRequest{Spec: testSpec()}); err != nil { // c0001: shards 0 and 1
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	c.Register(mux)
	post := func(path, body string) int {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec.Code
	}
	for _, id := range []string{"l999999", "c9999.0", "c0001.99", "c0001.2", "c0001.-1", "c0001.0x", "c0001.01", "c0001"} {
		if _, err := c.Complete(id, nil); err == nil {
			t.Errorf("Complete(%q) succeeded", id)
		}
		if code := post("/fleet/leases/"+id+"/complete", `{"records":[]}`); code != http.StatusNotFound {
			t.Errorf("complete %s: %d, want 404", id, code)
		}
		if code := post("/fleet/leases/"+id+"/renew", ""); code != http.StatusGone {
			t.Errorf("renew %s: %d, want 410", id, code)
		}
	}
	if st, _ := c.Status("c0001"); st.ShardsDone != 0 || st.ShardsLeased != 0 {
		t.Errorf("unknown ids changed the campaign: %+v", st)
	}
}

// TestOutstandingCapRejectsAndFrees: a submit that would take the jobs
// outstanding across all campaigns past MaxOutstanding is refused with
// a QuotaError, and the cap frees as those jobs leave — on completion,
// on cancel, when a cancelled campaign's lease expires — with the count
// carried across a journaled restart, where the shards that were leased
// come back queued.
func TestOutstandingCapRejectsAndFrees(t *testing.T) {
	t.Run("log", func(t *testing.T) {
		clock := newFakeClock()
		ss, err := campaign.OpenShardedStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer ss.Close()
		opt := Options{Store: ss, MaxOutstanding: 6, Journal: filepath.Join(t.TempDir(), "fleet.journal")}
		c := newTestCoordinator(t, clock, opt)
		refuse := func(jobs, outstanding int) {
			t.Helper()
			_, err := c.Submit(SubmitRequest{Spec: testSpec([]float64{0.5, 0.55}[:jobs/2]...)})
			var qe *QuotaError
			if !errors.As(err, &qe) || *qe != (QuotaError{Outstanding: outstanding, Requested: jobs, Quota: 6}) {
				t.Fatalf("Submit of %d jobs with %d outstanding = %v, want a QuotaError", jobs, outstanding, err)
			}
		}
		lease := func() LeaseResponse {
			t.Helper()
			l, ok := c.Lease("w")
			if !ok {
				t.Fatal("no lease")
			}
			return l
		}

		a, err := c.Submit(SubmitRequest{Spec: testSpec()}) // 4 jobs, 2 shards
		if err != nil {
			t.Fatal(err)
		}
		refuse(4, 4)
		// A completion frees its shard's jobs.
		la := lease()
		if _, err := c.Complete(la.LeaseID, stubRecords(t, la.Spec, la.Shard)); err != nil {
			t.Fatal(err)
		}
		b, err := c.Submit(SubmitRequest{Spec: testSpec(0.15, 0.20)}) // 2 + 4 = 6
		if err != nil {
			t.Fatalf("Submit after a completion freed 2 jobs: %v", err)
		}
		refuse(2, 6)
		// A cancel frees the campaign's queued shards, not its lease.
		la2 := lease()
		lb := lease()
		if la2.Campaign != a.ID || lb.Campaign != b.ID {
			t.Fatalf("leases %s, %s; want one of each campaign", la2.LeaseID, lb.LeaseID)
		}
		if _, ok := c.Cancel(b.ID); !ok {
			t.Fatal("Cancel")
		}
		if m := c.Metrics(); m.Outstanding != 4 || m.LeasesActive != 2 {
			t.Fatalf("after cancel: %+v, want 4 outstanding", m)
		}
		// The cancelled campaign's lease expires without re-queueing.
		clock.Advance(31 * time.Second)
		if m := c.Metrics(); m.Outstanding != 4 {
			t.Fatalf("before the sweep: %d outstanding, want 4", m.Outstanding)
		}
		if c.Renew(lb.LeaseID) { // sweeps both leases; a's shard is re-queued
			t.Fatal("renew re-adopted a cancelled campaign's shard")
		}
		if m := c.Metrics(); m.Outstanding != 2 || m.LeasesExpired != 2 || m.QueueDepth != 1 {
			t.Fatalf("after expiry: %+v, want a's 2 requeued jobs outstanding", m)
		}
		if _, err := c.Submit(SubmitRequest{Spec: testSpec(0.25, 0.30)}); err != nil {
			t.Fatalf("Submit after the cancelled lease expired: %v", err)
		}
		// a's holder takes its shard back.
		if !c.Renew(la2.LeaseID) {
			t.Fatal("renew did not re-adopt a's queued shard")
		}

		// The count comes back from the journal: the re-adopted shard is
		// queued again.
		c.WaitCompactions()
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		c = newTestCoordinator(t, clock, opt)
		defer c.Close()
		if m := c.Metrics(); m.Outstanding != 6 || m.LeasesActive != 0 || m.QueueDepth != 3 || m.JournalReplayed != 4 {
			t.Fatalf("after restart: %+v, want 6 jobs in 3 queued shards, replayed from 4 records", m)
		}
		refuse(2, 6)
		if !c.Renew(la2.LeaseID) {
			t.Fatal("renew did not re-adopt a's shard after the restart")
		}
		if m := c.Metrics(); m.Outstanding != 6 || m.LeasesActive != 1 {
			t.Fatalf("after the re-adopting renew: %+v, want the count unchanged", m)
		}
		if st, _ := c.Status(a.ID); st.State != "running" {
			t.Fatalf("campaign a = %+v, want running", st)
		}
		if m := c.Metrics(); m.SubmitsRejected != 1 || m.LeasesExpired != 0 {
			t.Fatalf("since restart: %+v, want 1 rejected submit and no expiry", m)
		}
	})
}

// TestEqualShareDispatch: every campaign gets an equal share of grants
// whatever its size, so a 2-shard probe submitted beside a running
// 40-shard sweep is served within its first four grants.
func TestEqualShareDispatch(t *testing.T) {
	c := newTestCoordinator(t, nil, Options{ShardSize: 1})
	rates := make([]float64, 20)
	for i := range rates {
		rates[i] = float64(i+1) / 100
	}
	sweep, err := c.Submit(SubmitRequest{Spec: testSpec(rates...)})
	if err != nil || sweep.Shards != 40 {
		t.Fatalf("sweep Submit = %+v, %v; want 40 shards", sweep, err)
	}
	for i := 0; i < 5; i++ {
		if _, ok := c.Lease("w"); !ok {
			t.Fatal("no lease")
		}
	}
	probe, err := c.Submit(SubmitRequest{Spec: testSpec(0.99)})
	if err != nil || probe.Shards != 2 {
		t.Fatalf("probe Submit = %+v, %v", probe, err)
	}
	got := 0
	for i := 0; i < 4; i++ {
		l, ok := c.Lease("w")
		if !ok {
			t.Fatal("no lease")
		}
		if l.Campaign == probe.ID {
			got++
		}
	}
	if got != probe.Shards {
		t.Fatalf("probe got %d of its %d shards in the first 4 grants after it was submitted", got, probe.Shards)
	}
}

func TestFastCompleteFromStore(t *testing.T) {
	c := newTestCoordinator(t, nil, Options{})
	spec := testSpec()
	first, err := c.Submit(SubmitRequest{Spec: spec})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	for {
		l, ok := c.Lease("w")
		if !ok {
			break
		}
		if _, err := c.Complete(l.LeaseID, stubRecords(t, spec, l.Shard)); err != nil {
			t.Fatalf("Complete: %v", err)
		}
	}
	// Resubmitting the same spec finds every record in the store: the
	// campaign is born done and never queues a shard.
	again, err := c.Submit(SubmitRequest{Spec: spec})
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if again.CachedShards != first.Shards {
		t.Fatalf("CachedShards = %d, want %d", again.CachedShards, first.Shards)
	}
	st, _ := c.Status(again.ID)
	if st.State != "done" {
		t.Fatalf("resubmitted campaign state = %q, want done", st.State)
	}
	if _, ok := c.Lease("w"); ok {
		t.Fatal("cached campaign should queue no shards")
	}
}

func TestDrainRejectsSubmitsAndStopsLeasing(t *testing.T) {
	c := newTestCoordinator(t, nil, Options{})
	spec := testSpec()
	if _, err := c.Submit(SubmitRequest{Spec: spec}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	l, ok := c.Lease("w")
	if !ok {
		t.Fatal("no lease")
	}
	c.Drain()
	if _, err := c.Submit(SubmitRequest{Spec: testSpec(0.15)}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit while draining: %v, want ErrDraining", err)
	}
	if _, ok := c.Lease("w2"); ok {
		t.Fatal("lease granted while draining")
	}
	// In-flight work still lands.
	if !c.Renew(l.LeaseID) {
		t.Fatal("renew refused while draining")
	}
	if _, err := c.Complete(l.LeaseID, stubRecords(t, spec, l.Shard)); err != nil {
		t.Fatalf("Complete while draining: %v", err)
	}
}

func TestCompactionAfterReleasedShardDuplicates(t *testing.T) {
	// Force duplicate *writes* (not just deduped completions) by
	// appending through two stores over the same directory — the
	// concurrent-writer shape — then verify the coordinator's background
	// sweep compacts once dead weight crosses the threshold.
	dir := t.TempDir()
	a, err := campaign.OpenShardedStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := campaign.OpenShardedStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := campaign.OpenShardedStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := func(i int) campaign.Record {
		return campaign.Record{Key: fmt.Sprintf("%064x", i), Result: stats.RunRecord{Runs: 1}}
	}
	// Every key lands in shard 0 (leading zeros), written by all three
	// handles: stores b and c never see a's cache, so their appends are
	// real duplicate lines — dead weight strictly exceeding live.
	const n = 400
	for i := 0; i < n; i++ {
		for _, ss := range []*campaign.ShardedStore{a, b, c} {
			if _, err := ss.Append(rec(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	a.Close()
	b.Close()
	c.Close()
	reopened, err := campaign.OpenShardedStore(dir)
	if err != nil {
		t.Fatalf("reload after duplicate writers: %v", err)
	}
	defer reopened.Close()
	if reopened.Len() != n {
		t.Fatalf("Len = %d, want %d (duplicates must collapse)", reopened.Len(), n)
	}
	if reopened.Dead() != 2*n {
		t.Fatalf("Dead = %d, want %d", reopened.Dead(), 2*n)
	}
	compacted, err := reopened.MaybeCompact()
	if err != nil {
		t.Fatalf("MaybeCompact: %v", err)
	}
	if compacted == 0 {
		t.Fatal("expected at least one shard compacted")
	}
	if reopened.Dead() != 0 {
		t.Fatalf("Dead after compaction = %d, want 0", reopened.Dead())
	}
	final, err := campaign.OpenShardedStore(dir)
	if err != nil {
		t.Fatalf("reload after compaction: %v", err)
	}
	defer final.Close()
	if final.Len() != n || final.Dead() != 0 {
		t.Fatalf("after compaction reload: live=%d dead=%d, want %d/0", final.Len(), final.Dead(), n)
	}
}

// TestOversizedBodiesRejected: every POST body is capped; a request
// past its cap is answered 413 and changes no coordinator state.
func TestOversizedBodiesRejected(t *testing.T) {
	c := newTestCoordinator(t, nil, Options{})
	mux := http.NewServeMux()
	c.Register(mux)
	for path, limit := range map[string]int{
		"/fleet/campaigns":         maxRequestBody,
		"/fleet/lease":             maxRequestBody,
		"/fleet/leases/x/complete": maxCompleteBody,
	} {
		// Leading whitespace is legal JSON, so only the cap can reject this.
		body := strings.NewReader(strings.Repeat(" ", limit) + "{}")
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, body))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with %d+2 bytes: status %d, want 413", path, limit, rec.Code)
		}
	}
	if n := len(c.Statuses()); n != 0 {
		t.Errorf("oversized submit left %d campaigns behind", n)
	}
}

// bigGrid is a valid spec of rates x seeds jobs.
func bigGrid(rates, seeds int) campaign.Spec {
	spec := testSpec()
	spec.Rates = make([]float64, rates)
	for i := range spec.Rates {
		spec.Rates[i] = float64(i+1) / float64(rates)
	}
	spec.Seeds = make([]uint64, seeds)
	for i := range spec.Seeds {
		spec.Seeds[i] = uint64(i + 1)
	}
	return spec
}

// TestSubmitRefusesHugeGridsCheaply: grid size is caller-controlled, so
// the refusals must not cost what the grid would. A grid past
// campaign.MaxJobs is a 400 from Normalize; one under it but past the
// outstanding-jobs cap is a QuotaError raised from the job *count* — the job
// list is never built.
func TestSubmitRefusesHugeGridsCheaply(t *testing.T) {
	c := newTestCoordinator(t, nil, Options{MaxOutstanding: 6})
	mux := http.NewServeMux()
	c.Register(mux)
	body, err := json.Marshal(SubmitRequest{Spec: bigGrid(1025, 1025)})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/fleet/campaigns", strings.NewReader(string(body))))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "jobs") {
		t.Errorf("POST /fleet/campaigns with a 1025x1025 grid: %d %s, want 400 naming the job cap", rec.Code, rec.Body)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = c.Submit(SubmitRequest{Spec: bigGrid(450, 450)})
	runtime.ReadMemStats(&after)
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Requested != 450*450 {
		t.Fatalf("Submit of 202500 jobs against cap 6 = %v, want QuotaError requesting 202500", err)
	}
	// Expanding 202 500 jobs allocates on the order of 100 MB.
	if spent := after.TotalAlloc - before.TotalAlloc; spent > 4<<20 {
		t.Errorf("refused submit allocated %d MiB; the cap check must precede Expand", spent>>20)
	}
	if m := c.Metrics(); m.SubmitsRejected != 1 || m.CampaignsTotal != 0 {
		t.Errorf("after refusals: %+v, want 1 quota rejection and no campaigns", m)
	}
}

// TestStoreFailureRequeuesShard: a completion whose records the store
// refuses must not wedge its shard. The shard goes back to the queue
// and off the active leases, the next lease grants it, and
// the HTTP answer is a retryable 503 + Retry-After, not the 404 a
// worker would abandon the shard on.
func TestStoreFailureRequeuesShard(t *testing.T) {
	ss, err := campaign.OpenShardedStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := newTestCoordinator(t, nil, Options{Store: ss, ShardSize: 4})
	spec := testSpec() // 4 jobs: one shard
	if _, err := c.Submit(SubmitRequest{Spec: spec}); err != nil {
		t.Fatal(err)
	}
	l, ok := c.Lease("w1")
	if !ok {
		t.Fatal("no lease")
	}
	ss.Close() // every append now fails

	if _, err := c.Complete(l.LeaseID, stubRecords(t, spec, l.Shard)); !errors.Is(err, ErrStore) {
		t.Fatalf("Complete on a failing store = %v, want ErrStore", err)
	}
	m := c.Metrics()
	if m.QueueDepth != 1 || m.Outstanding != 4 || m.LeasesActive != 0 {
		t.Fatalf("after a failed completion: %+v, want the shard queued and nothing in flight", m)
	}
	again, ok := c.Lease("w2")
	if !ok || again.Shard.Index != l.Shard.Index {
		t.Fatalf("next lease = %+v (ok %v), want shard %d re-granted", again, ok, l.Shard.Index)
	}

	mux := http.NewServeMux()
	c.Register(mux)
	body, err := json.Marshal(CompleteRequest{Records: stubRecords(t, spec, again.Shard)})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/fleet/leases/"+again.LeaseID+"/complete", strings.NewReader(string(body))))
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("HTTP complete on a failing store: %d (Retry-After %q), want 503 with Retry-After", rec.Code, rec.Header().Get("Retry-After"))
	}
}

// TestCancelTombstonesQueuedShards: Cancel takes a campaign's queued
// shards off the queue and the outstanding count; its in-flight leases
// still complete, and one that expires is retired rather than
// re-queued. The campaign reads "cancelled" and stops counting as
// running; cancelling again, or cancelling a finished campaign, changes
// nothing.
func TestCancelTombstonesQueuedShards(t *testing.T) {
	clock := newFakeClock()
	c := newTestCoordinator(t, clock, Options{ShardSize: 1})
	spec := testSpec() // 4 jobs in 4 shards
	sub, err := c.Submit(SubmitRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	l1, _ := c.Lease("w1")
	l2, _ := c.Lease("w2")

	st, ok := c.Cancel(sub.ID)
	if !ok || st.State != "cancelled" {
		t.Fatalf("Cancel = %+v (ok %v), want state cancelled", st, ok)
	}
	if m := c.Metrics(); m.QueueDepth != 0 || m.Outstanding != 2 || m.CampaignsRunning != 0 {
		t.Fatalf("after cancel: %+v, want nothing queued and the two leases in flight", m)
	}
	if l, ok := c.Lease("w3"); ok {
		t.Fatalf("cancelled campaign granted %+v", l)
	}
	if _, err := c.Complete(l1.LeaseID, stubRecords(t, spec, l1.Shard)); err != nil {
		t.Fatalf("in-flight Complete after cancel: %v", err)
	}
	clock.Advance(31 * time.Second) // l2's worker died
	if _, ok := c.Lease("w3"); ok {
		t.Fatal("an expired lease of a cancelled campaign was re-queued")
	}
	m := c.Metrics()
	if m.QueueDepth != 0 || m.Outstanding != 0 || m.LeasesExpired != 1 {
		t.Fatalf("after expiry: %+v, want nothing outstanding", m)
	}
	if st, _ := c.Cancel(sub.ID); st.State != "cancelled" || st.ShardsDone != 1 {
		t.Fatalf("second cancel = %+v, want cancelled with 1 shard done", st)
	}
	if _, ok := c.Cancel("c9999"); ok {
		t.Error("Cancel of an unknown campaign reported ok")
	}
	// The late worker's completion still lands.
	if _, err := c.Complete(l2.LeaseID, stubRecords(t, spec, l2.Shard)); err != nil {
		t.Fatalf("late Complete: %v", err)
	}

	// A finished campaign stays done.
	done, err := c.Submit(SubmitRequest{Spec: testSpec(0.15)})
	if err != nil {
		t.Fatal(err)
	}
	for l, ok := c.Lease("w"); ok; l, ok = c.Lease("w") {
		if _, err := c.Complete(l.LeaseID, stubRecords(t, l.Spec, l.Shard)); err != nil {
			t.Fatal(err)
		}
	}
	if st, _ := c.Cancel(done.ID); st.State != "done" {
		t.Errorf("cancelling a finished campaign: state %q, want done", st.State)
	}
}
