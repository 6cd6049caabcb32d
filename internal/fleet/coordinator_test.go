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
	if m := c.Metrics(); m.QueueDepth != 2 || m.TenantQueued["default"] != 4 {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestSubmitRefusesPolicyProfile: workers run plain grid jobs, so a
// policy_profile spec is refused by name — directly and as a 400 over
// HTTP — rather than run as a grid whose policy comparison never
// happens. Nothing is admitted and nothing is journaled.
func TestSubmitRefusesPolicyProfile(t *testing.T) {
	c := newTestCoordinator(t, nil, Options{Journal: filepath.Join(t.TempDir(), "journal")})
	defer c.Close()
	spec := testSpec()
	spec.PolicyProfile = &campaign.PolicyProfileSpec{Policies: []string{"greedy"}}
	if _, err := c.Submit(SubmitRequest{Spec: spec}); err == nil || !strings.Contains(err.Error(), "policy_profile") {
		t.Errorf("Submit of a policy_profile spec = %v, want a refusal naming policy_profile", err)
	}

	mux := http.NewServeMux()
	c.Register(mux)
	body, err := json.Marshal(SubmitRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/fleet/campaigns", strings.NewReader(string(body))))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "policy_profile") {
		t.Errorf("POST /fleet/campaigns with a policy_profile spec: %d %s, want 400 naming policy_profile", rec.Code, rec.Body)
	}

	if m := c.Metrics(); m.CampaignsTotal != 0 || m.QueueDepth != 0 || m.JournalRecords != 0 {
		t.Errorf("after refusals: %d campaigns, queue %d, %d journal records; want none", m.CampaignsTotal, m.QueueDepth, m.JournalRecords)
	}
	// The same grid without the policy axis is admitted as usual.
	spec.PolicyProfile = nil
	if _, err := c.Submit(SubmitRequest{Spec: spec}); err != nil {
		t.Fatalf("Submit of the plain grid: %v", err)
	}
}

func TestLeaseCompleteLifecycle(t *testing.T) {
	clock := newFakeClock()
	c := newTestCoordinator(t, clock, Options{})
	spec := testSpec()
	resp, err := c.Submit(SubmitRequest{Tenant: "alice", Spec: spec})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	for i := 0; i < resp.Shards; i++ {
		l, ok := c.Lease("w1")
		if !ok {
			t.Fatalf("lease %d: no work", i)
		}
		if l.Tenant != "alice" || l.Jobs != 2 {
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
	if m.JobsCompleted != 4 || m.RecordsPersisted != 4 || m.LeasesActive != 0 {
		t.Fatalf("metrics = %+v", m)
	}
	if len(m.TenantInflight) != 0 || len(m.TenantQueued) != 0 {
		t.Fatalf("tenant accounting not drained: %+v", m)
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

func TestCompleteUnknownLease(t *testing.T) {
	c := newTestCoordinator(t, nil, Options{})
	if _, err := c.Complete("l999999", nil); err == nil {
		t.Fatal("expected error for unknown lease")
	}
}

func TestTenantQuotaRejectsAndFrees(t *testing.T) {
	clock := newFakeClock()
	c := newTestCoordinator(t, clock, Options{TenantQuota: 6})
	spec := testSpec() // 4 jobs
	if _, err := c.Submit(SubmitRequest{Tenant: "bob", Spec: spec}); err != nil {
		t.Fatalf("first Submit: %v", err)
	}
	// 4 outstanding + 4 requested > 6: rejected with the typed error.
	other := testSpec(0.15, 0.20)
	_, err := c.Submit(SubmitRequest{Tenant: "bob", Spec: other})
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("expected QuotaError, got %v", err)
	}
	if qe.Outstanding != 4 || qe.Requested != 4 || qe.Quota != 6 {
		t.Fatalf("QuotaError = %+v", qe)
	}
	// Other tenants are unaffected.
	if _, err := c.Submit(SubmitRequest{Tenant: "carol", Spec: other}); err != nil {
		t.Fatalf("carol Submit: %v", err)
	}
	// Finish bob's campaign; the quota frees.
	for {
		l, ok := c.Lease("w")
		if !ok {
			break
		}
		if _, err := c.Complete(l.LeaseID, stubRecords(t, l.Spec, l.Shard)); err != nil {
			t.Fatalf("Complete: %v", err)
		}
	}
	if _, err := c.Submit(SubmitRequest{Tenant: "bob", Spec: testSpec(0.25, 0.30)}); err != nil {
		t.Fatalf("Submit after quota freed: %v", err)
	}
	if m := c.Metrics(); m.SubmitsRejected != 1 {
		t.Fatalf("SubmitsRejected = %d, want 1", m.SubmitsRejected)
	}
}

func TestWeightedFairDispatch(t *testing.T) {
	q := newWFQ()
	pend := func(n int) []int {
		s := make([]int, n)
		for i := range s {
			s[i] = i
		}
		return s
	}
	q.add("heavy", "t", 3, pend(100))
	q.add("light", "t", 1, pend(100))
	counts := map[string]int{}
	for i := 0; i < 40; i++ {
		id, _, ok := q.pick()
		if !ok {
			t.Fatal("queue ran dry")
		}
		counts[id]++
	}
	if counts["heavy"] != 30 || counts["light"] != 10 {
		t.Fatalf("dispatch counts = %v, want heavy=30 light=10 (3:1 weights)", counts)
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
// tenant's quota is a QuotaError raised from the job *count* — the job
// list is never built.
func TestSubmitRefusesHugeGridsCheaply(t *testing.T) {
	c := newTestCoordinator(t, nil, Options{TenantQuota: 6})
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
	_, err = c.Submit(SubmitRequest{Tenant: "mallory", Spec: bigGrid(450, 450)})
	runtime.ReadMemStats(&after)
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Requested != 450*450 {
		t.Fatalf("Submit of 202500 jobs against quota 6 = %v, want QuotaError requesting 202500", err)
	}
	// Expanding 202 500 jobs allocates on the order of 100 MB.
	if spent := after.TotalAlloc - before.TotalAlloc; spent > 4<<20 {
		t.Errorf("refused submit allocated %d MiB; the quota check must precede Expand", spent>>20)
	}
	if m := c.Metrics(); m.SubmitsRejected != 1 || m.CampaignsTotal != 0 {
		t.Errorf("after refusals: %+v, want 1 quota rejection and no campaigns", m)
	}
}
