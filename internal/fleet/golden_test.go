package fleet

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tdmnoc/internal/campaign"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden-ctrl.sha256")

// TestGoldenControlPlaneBytes pins the on-disk format of the control
// plane: a scripted, fake-clock, in-process sequence (three submits,
// grants, renewals, completions, an expiry, a late duplicate
// completion, a drain, a restart, a shard that reports its one job
// failed) must leave a journal and 16 store shard files whose bytes
// hash to the committed digests. It uses only the exported API so the same
// file regenerates the fixture on any commit (`go test ./internal/fleet
// -run GoldenControlPlane -update`). A final reopen of the directory
// must replay the journal and serve byte-identical summaries, with the
// failed shard settled.
func TestGoldenControlPlaneBytes(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	open := func() (*Coordinator, *campaign.ShardedStore, *http.ServeMux) {
		t.Helper()
		ss, err := campaign.OpenShardedStore(filepath.Join(dir, "store"))
		if err != nil {
			t.Fatalf("OpenShardedStore: %v", err)
		}
		c, err := NewCoordinator(Options{
			Store:     ss,
			ShardSize: 2,
			LeaseTTL:  30 * time.Second,
			Journal:   filepath.Join(dir, "fleet.journal"),
			Now:       clock.Now,
		})
		if err != nil {
			t.Fatalf("NewCoordinator: %v", err)
		}
		mux := http.NewServeMux()
		c.Register(mux)
		return c, ss, mux
	}
	shutdown := func(c *Coordinator, ss *campaign.ShardedStore) {
		t.Helper()
		if err := c.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if err := ss.Close(); err != nil {
			t.Fatalf("store Close: %v", err)
		}
	}
	lease := func(c *Coordinator, worker string) LeaseResponse {
		t.Helper()
		l, ok := c.Lease(worker)
		if !ok {
			t.Fatalf("no lease for %s", worker)
		}
		return l
	}
	complete := func(c *Coordinator, l LeaseResponse) CompleteResponse {
		t.Helper()
		resp, err := c.Complete(l.LeaseID, stubRecords(t, l.Spec, l.Shard))
		if err != nil {
			t.Fatalf("Complete %s: %v", l.LeaseID, err)
		}
		return resp
	}
	summary := func(mux *http.ServeMux, id string) string {
		t.Helper()
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/fleet/campaigns/"+id+"/summary", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET summary %s: %d %s", id, rec.Code, rec.Body)
		}
		return rec.Body.String()
	}

	// Phase 1: admission, grants, a renew, a completion, an expiry, the
	// expired worker's late completion racing the re-grant, a drain.
	c, ss, _ := open()
	alice, err := c.Submit(SubmitRequest{Spec: testSpec()})
	if err != nil {
		t.Fatalf("Submit alice: %v", err)
	}
	bob, err := c.Submit(SubmitRequest{Spec: testSpec(0.15, 0.20, 0.25, 0.30, 0.35, 0.40)})
	if err != nil {
		t.Fatalf("Submit bob: %v", err)
	}
	l1, l2 := lease(c, "w1"), lease(c, "w2")
	if !c.Renew(l1.LeaseID) {
		t.Fatal("renew l1")
	}
	complete(c, l1)
	clock.Advance(31 * time.Second) // l2 expires
	l3 := lease(c, "w3")            // sweeps l2; its shard is re-queued
	for l3.Campaign != l2.Campaign || l3.Shard != l2.Shard {
		complete(c, l3) // fair order served another shard first
		l3 = lease(c, "w3")
	}
	complete(c, l3)
	if late := complete(c, l2); late.Persisted != 0 || late.Duplicates == 0 {
		t.Fatalf("late completion = %+v, want all duplicates", late)
	}
	c.Drain()
	shutdown(c, ss)

	// Phase 2: restart on the journal (comes back serving) and finish
	// both campaigns; then a one-job campaign whose only record comes
	// back failed, so a complete record is journaled and nothing new
	// reaches the store.
	c, ss, mux := open()
	if c.Recovered() == 0 || c.Draining() {
		t.Fatalf("restart: recovered %d records, draining %v", c.Recovered(), c.Draining())
	}
	for {
		l, ok := c.Lease("w4")
		if !ok {
			break
		}
		if !c.Renew(l.LeaseID) {
			t.Fatalf("renew %s", l.LeaseID)
		}
		complete(c, l)
	}
	one := testSpec(0.45)
	one.Seeds = []uint64{1}
	carol, err := c.Submit(SubmitRequest{Spec: one})
	if err != nil {
		t.Fatalf("Submit carol: %v", err)
	}
	lc := lease(c, "w5")
	failed := stubRecords(t, lc.Spec, lc.Shard)
	failed[0].Err = "job failed"
	if resp, err := c.Complete(lc.LeaseID, failed); err != nil || resp.Failed != 1 {
		t.Fatalf("Complete %s = %+v, %v; want one failed job", lc.LeaseID, resp, err)
	}
	if m := c.Metrics(); m.JournalSyncs != 2 || m.CampaignsRunning != 0 || m.StoreDead != 0 {
		t.Fatalf("after script: %+v, want carol's submit and complete the only journal appends since the restart, nothing running, no dead lines", m)
	}
	summaries := map[string]string{alice.ID: summary(mux, alice.ID), bob.ID: summary(mux, bob.ID)}

	// Digest every file the script left behind, plus the served bytes.
	var got strings.Builder
	digest := func(name string) {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(name)))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%x  %s\n", sha256.Sum256(b), name)
	}
	shutdown(c, ss)
	for i := 0; i < 16; i++ {
		digest(fmt.Sprintf("store/shard-%x.jsonl", i))
	}
	digest("fleet.journal")
	for _, id := range []string{alice.ID, bob.ID} {
		fmt.Fprintf(&got, "%x  summary/%s\n", sha256.Sum256([]byte(summaries[id])), id)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 2 {
		t.Fatalf("data dir holds %v (err %v), want only fleet.journal and store/", entries, err)
	}

	golden := filepath.Join("testdata", "golden-ctrl.sha256")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden digests (regenerate with `go test ./internal/fleet -run GoldenControlPlane -update`): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("control-plane bytes changed:\n got:\n%swant:\n%s", got.String(), want)
	}

	// Phase 3: the directory must still open, replay, and serve the same
	// summaries byte for byte.
	c, ss, mux = open()
	defer shutdown(c, ss)
	if c.Recovered() == 0 {
		t.Fatal("final reopen replayed no journal records")
	}
	for id, before := range summaries {
		if after := summary(mux, id); after != before {
			t.Errorf("summary %s changed across reopen:\nbefore %s\nafter  %s", id, before, after)
		}
	}
	if st, _ := c.Status(carol.ID); st.State != "done" || st.JobsFailed != 1 {
		t.Errorf("campaign %s after reopen: %+v, want done with 1 failed job", carol.ID, st)
	}
}
