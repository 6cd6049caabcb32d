package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"tdmnoc/internal/campaign"
)

// journaledOptions returns options for a coordinator whose journal and
// store live in the given directory, so a second coordinator built from
// the same options is a restart of the first.
func journaledOptions(t *testing.T, dir string, clock *fakeClock) Options {
	t.Helper()
	ss, err := campaign.OpenShardedStore(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatalf("OpenShardedStore: %v", err)
	}
	t.Cleanup(func() { ss.Close() })
	opt := Options{
		Store:     ss,
		ShardSize: 2,
		LeaseTTL:  30 * time.Second,
		Journal:   filepath.Join(dir, "fleet.journal"),
	}
	if clock != nil {
		opt.Now = clock.Now
	}
	return opt
}

// TestJournalRecoversQueuedCampaignsAndLeases is the journal's core
// check at the API level: a coordinator killed (dropped without
// shutdown) after submits, grants, completes and renews comes back with
// the same campaigns, outstanding jobs and campaign-id sequence, and
// the in-flight lease's shard queued. The worker holding it renews,
// which re-adopts the shard with a fresh TTL, and completes it.
func TestJournalRecoversQueuedCampaignsAndLeases(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	spec := testSpec()

	c1, err := NewCoordinator(journaledOptions(t, dir, clock))
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	sub, err := c1.Submit(SubmitRequest{Spec: spec})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := c1.Submit(SubmitRequest{Spec: testSpec(0.15, 0.20)}); err != nil {
		t.Fatalf("second Submit: %v", err)
	}
	// Grant two leases; complete one, leave the other in flight.
	l1, ok := c1.Lease("w1")
	if !ok {
		t.Fatal("no lease for w1")
	}
	l2, ok := c1.Lease("w2")
	if !ok {
		t.Fatal("no lease for w2")
	}
	if _, err := c1.Complete(l1.LeaseID, stubRecords(t, l1.Spec, l1.Shard)); err != nil {
		t.Fatalf("Complete: %v", err)
	}
	if !c1.Renew(l2.LeaseID) {
		t.Fatal("renew before crash")
	}
	before := c1.Metrics()
	stBefore := c1.Statuses()
	// No Close: the crash leaves the journal exactly as the last append
	// synced it.

	// Burn most of the in-flight lease's TTL before the restart, so the
	// fresh TTL below is load-bearing: a deadline copied from grant time
	// would already have passed at the renew.
	clock.Advance(25 * time.Second)

	c2, err := NewCoordinator(journaledOptions(t, dir, clock))
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if c2.Recovered() == 0 {
		t.Fatal("restarted coordinator replayed no records")
	}
	after := c2.Metrics()
	if after.CampaignsTotal != before.CampaignsTotal ||
		after.CampaignsRunning != before.CampaignsRunning ||
		after.QueueDepth != before.QueueDepth+before.LeasesActive ||
		after.LeasesActive != 0 ||
		after.Outstanding != before.Outstanding {
		t.Fatalf("state diverged across restart, or the in-flight shard is not queued:\nbefore %+v\nafter  %+v", before, after)
	}
	stAfter := c2.Statuses()
	if len(stAfter) != len(stBefore) {
		t.Fatalf("campaign count = %d, want %d", len(stAfter), len(stBefore))
	}
	for i := range stBefore {
		b, a := stBefore[i], stAfter[i]
		if a.ID != b.ID || a.SpecHash != b.SpecHash ||
			a.Jobs != b.Jobs || a.ShardsDone != b.ShardsDone || a.State != b.State {
			t.Fatalf("campaign %d diverged:\nbefore %+v\nafter  %+v", i, b, a)
		}
	}

	// 25s burned before restart, now 20 more — past the original
	// deadline. The holder's renew takes its shard back off the queue.
	clock.Advance(20 * time.Second)
	if !c2.Renew(l2.LeaseID) {
		t.Fatal("the holder's renew did not re-adopt its queued shard")
	}
	if m := c2.Metrics(); m.LeasesActive != 1 || m.QueueDepth != before.QueueDepth {
		t.Fatalf("after the re-adopting renew: %+v, want the shard leased again", m)
	}
	if _, err := c2.Complete(l2.LeaseID, stubRecords(t, l2.Spec, l2.Shard)); err != nil {
		t.Fatalf("complete re-adopted lease: %v", err)
	}
	if st, _ := c2.Status(l2.Campaign); st.ShardsDone != 1 || st.ShardsLeased != 0 {
		t.Fatalf("after the holder's completion: %+v, want its shard settled", st)
	}

	// The campaign-id sequence continues where it left off.
	next, err := c2.Submit(SubmitRequest{Spec: testSpec(0.25, 0.30)})
	if err != nil {
		t.Fatalf("post-restart submit: %v", err)
	}
	if next.ID != "c0003" {
		t.Fatalf("post-restart campaign id = %s, want c0003", next.ID)
	}

	// Drain everything and check the recovered run converges: the first
	// campaign's summary must match a fresh single-process aggregation
	// of its records.
	for {
		l, ok := c2.Lease("w")
		if !ok {
			break
		}
		if _, err := c2.Complete(l.LeaseID, stubRecords(t, l.Spec, l.Shard)); err != nil {
			t.Fatalf("drain Complete: %v", err)
		}
	}
	st, _ := c2.Status(sub.ID)
	if st.State != "done" {
		t.Fatalf("campaign after drain = %+v, want done", st)
	}
	if err := c2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestJournalSurvivesCrashBetweenGrantAndComplete pins the narrowest
// crash window: a shard granted but never completed comes back queued,
// and the worker that held it — which never heard about the crash —
// completes against the restarted coordinator.
func TestJournalSurvivesCrashBetweenGrantAndComplete(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	c1, err := NewCoordinator(journaledOptions(t, dir, clock))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Submit(SubmitRequest{Spec: testSpec()}); err != nil {
		t.Fatal(err)
	}
	l, ok := c1.Lease("w1")
	if !ok {
		t.Fatal("no lease")
	}

	c2, err := NewCoordinator(journaledOptions(t, dir, clock))
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if m := c2.Metrics(); m.LeasesActive != 0 || m.QueueDepth != 2 {
		t.Fatalf("after restart: %+v, want both shards queued", m)
	}
	// The worker never heard about the crash; its completion settles
	// the shard and takes it off the queue.
	if _, err := c2.Complete(l.LeaseID, stubRecords(t, l.Spec, l.Shard)); err != nil {
		t.Fatalf("complete across restart: %v", err)
	}
	if m := c2.Metrics(); m.QueueDepth != 1 {
		t.Fatalf("after the completion: %+v, want 1 queued shard", m)
	}
	c2.Close()
}

// TestJournalTornTrailerTolerated mirrors the store's crash contract: a
// final line cut short by a crash (no terminating newline) is dropped
// and truncated away at open, and subsequent appends extend a clean
// file instead of the torn fragment.
func TestJournalTornTrailerTolerated(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	c1, err := NewCoordinator(journaledOptions(t, dir, clock))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Submit(SubmitRequest{Spec: testSpec()}); err != nil {
		t.Fatal(err)
	}
	c1.Close()

	path := filepath.Join(dir, "fleet.journal")
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte{}, intact...), []byte(`{"op":"grant","campaign":"c0001","lea`)...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := NewCoordinator(journaledOptions(t, dir, clock))
	if err != nil {
		t.Fatalf("open over torn trailer: %v", err)
	}
	if got := c2.Recovered(); got != 1 {
		t.Fatalf("Recovered = %d, want 1 (the submit; the torn grant dropped)", got)
	}
	// The torn bytes must be gone from disk, not just skipped: an
	// O_APPEND write after a skipped-but-present fragment would fuse two
	// records into permanent mid-file corruption.
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, intact) {
		t.Fatalf("torn trailer not truncated:\ngot  %q\nwant %q", onDisk, intact)
	}
	// And appends after recovery produce a journal a third open parses
	// in full.
	if _, err := c2.Submit(SubmitRequest{Spec: testSpec(0.15)}); err != nil {
		t.Fatal(err)
	}
	c2.Close()
	c3, err := NewCoordinator(journaledOptions(t, dir, clock))
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	if m := c3.Metrics(); m.CampaignsTotal != 2 || c3.Recovered() != 2 {
		t.Fatalf("third open state: %+v, recovered %d", m, c3.Recovered())
	}
	c3.Close()
}

// TestJournalMidFileCorruptionFailsOpen: an unparseable
// newline-terminated line is not a torn write — something rewrote the
// file. Recovering around it would silently drop transitions, so the
// open must fail loudly instead.
func TestJournalMidFileCorruptionFailsOpen(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	c1, err := NewCoordinator(journaledOptions(t, dir, clock))
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []campaign.Spec{testSpec(), testSpec(0.15)} {
		if _, err := c1.Submit(SubmitRequest{Spec: spec}); err != nil {
			t.Fatal(err)
		}
	}
	c1.Close()

	path := filepath.Join(dir, "fleet.journal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < 2 {
		t.Fatalf("journal too short to corrupt: %d lines", len(lines))
	}
	lines[0] = "{this is not JSON}\n"
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCoordinator(journaledOptions(t, dir, clock)); err == nil {
		t.Fatal("open over mid-file corruption succeeded; want loud failure")
	} else if !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("error %q does not mention corruption", err)
	}
}

// TestOldOrBadJournalRecordsFailOpen: a record that settles a shard its
// campaign does not have must fail the open, naming the campaign,
// instead of settling a shard that panics the first lookup that indexes
// the campaign's shards. A record only an older coordinator wrote — a
// lease or snapshot line, or a complete without failed jobs, which would
// settle a shard the store does not hold — fails the open naming its
// line and the format.
func TestOldOrBadJournalRecordsFailOpen(t *testing.T) {
	spec := testSpec()
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	submit := map[string]any{"op": "submit", "campaign": "c0001", "shard_size": 2, "spec_hash": spec.Hash(), "spec": spec}
	const old = "line 2 (%s): the journal predates the campaigns-only format"
	// A spec this binary's Normalize refuses (here a bound added after
	// it was journaled) fails the open through Rehydrate.
	outOfBounds := spec
	outOfBounds.SimWorkers = 65
	for _, tc := range []struct {
		name string
		line map[string]any
		want []string
	}{
		{"out-of-range-complete", map[string]any{"op": "complete", "campaign": "c0001", "shard": 99, "failed": 1},
			[]string{"c0001", "out of range"}},
		{"grant", map[string]any{"op": "grant", "campaign": "c0001", "shard": 0, "lease": "l1"},
			[]string{fmt.Sprintf(old, "grant")}},
		{"snapshot", map[string]any{"op": "snapshot", "snapshot": map[string]any{"seq": 1, "campaigns": []any{}}},
			[]string{fmt.Sprintf(old, "snapshot")}},
		{"complete-failed-0", map[string]any{"op": "complete", "campaign": "c0001", "shard": 0, "failed": 0},
			[]string{fmt.Sprintf(old, "complete")}},
		{"spec-out-of-bounds", map[string]any{"op": "submit", "campaign": "c0002", "shard_size": 2, "spec": outOfBounds},
			[]string{"line 2 (submit)", "sim_workers"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var journal []byte
			for _, l := range []any{submit, tc.line} {
				line, err := json.Marshal(l)
				if err != nil {
					t.Fatal(err)
				}
				journal = append(append(journal, line...), '\n')
			}
			if err := os.WriteFile(filepath.Join(dir, "fleet.journal"), journal, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := NewCoordinator(journaledOptions(t, dir, newFakeClock()))
			for _, want := range tc.want {
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("open = %v, want an error containing %q", err, want)
				}
			}
		})
	}
}

// TestJournalHoldsOnlyCampaigns: grants, renews, completions, an
// expiry, a late duplicate completion, a drain and a restart journal
// nothing. The journal holds one line per submit, one complete for the
// shard that reported a failed job, and one cancel — so a campaign with
// no failed job and no cancel is its submit line alone.
func TestJournalHoldsOnlyCampaigns(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	c1, err := NewCoordinator(journaledOptions(t, dir, clock))
	if err != nil {
		t.Fatal(err)
	}
	lease := func(c *Coordinator) LeaseResponse {
		t.Helper()
		l, ok := c.Lease("w")
		if !ok {
			t.Fatal("no lease")
		}
		if !c.Renew(l.LeaseID) {
			t.Fatalf("renew %s", l.LeaseID)
		}
		return l
	}
	complete := func(c *Coordinator, l LeaseResponse, failed bool) CompleteResponse {
		t.Helper()
		recs := stubRecords(t, l.Spec, l.Shard)
		if failed {
			recs[0].Err = "job failed"
		}
		resp, err := c.Complete(l.LeaseID, recs)
		if err != nil {
			t.Fatalf("Complete %s: %v", l.LeaseID, err)
		}
		return resp
	}
	for _, spec := range []campaign.Spec{testSpec(), testSpec(0.15, 0.20), testSpec(0.25, 0.30)} {
		if _, err := c1.Submit(SubmitRequest{Spec: spec}); err != nil {
			t.Fatal(err)
		}
	}
	// Equal share: one shard of each campaign, c0001 to c0003.
	plain, failing, doomed := lease(c1), lease(c1), lease(c1)
	complete(c1, plain, false)
	complete(c1, failing, true)
	clock.Advance(31 * time.Second) // doomed's lease expires at the next sweep
	thief := lease(c1)
	for thief.LeaseID != doomed.LeaseID {
		complete(c1, thief, false)
		thief = lease(c1)
	}
	complete(c1, doomed, false)
	if late := complete(c1, thief, false); late.Persisted != 0 || late.Duplicates != 2 {
		t.Fatalf("duplicate completion = %+v, want all duplicates", late)
	}
	c1.Cancel(doomed.Campaign)
	c1.Drain()
	if m := c1.Metrics(); m.LeasesExpired != 1 || m.JournalSyncs != 5 {
		t.Fatalf("before the restart: %+v, want one expiry and five journal syncs", m)
	}
	// No Close: the crash leaves the journal as the last append synced it.

	c2, err := NewCoordinator(journaledOptions(t, dir, clock))
	if err != nil {
		t.Fatal(err)
	}
	if c2.Draining() || c2.Recovered() != 5 {
		t.Fatalf("restart: draining %v, recovered %d; want serving, 5 records", c2.Draining(), c2.Recovered())
	}
	for id, want := range map[string]string{"c0001": "done", "c0002": "done", "c0003": "cancelled"} {
		if st, _ := c2.Status(id); st.State != want || st.JobsFailed != map[string]int{"c0002": 1}[id] {
			t.Fatalf("%s after restart: %+v, want %s", id, st, want)
		}
	}
	c2.Close()

	data, err := os.ReadFile(filepath.Join(dir, "fleet.journal"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("journal line unparseable: %v", err)
		}
		got = append(got, fmt.Sprintf("%s %s.%d failed %d", rec.Op, rec.Campaign, rec.Shard, rec.Failed))
	}
	want := []string{
		"submit c0001.0 failed 0", "submit c0002.0 failed 0", "submit c0003.0 failed 0",
		"complete c0002.0 failed 1", "cancel c0003.0 failed 0",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("journal holds\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestReplayRequeuesShardMissingFromStore: a shard is done after a
// restart only when the store holds its records — store appends are not
// synced, so a crash can lose records the shard's completion posted —
// or when a journaled completion reported failed jobs, which the store
// cannot show.
func TestReplayRequeuesShardMissingFromStore(t *testing.T) {
	for _, tc := range []struct {
		name   string
		failed int
	}{{"clean", 0}, {"failed", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			clock := newFakeClock()
			c1, err := NewCoordinator(journaledOptions(t, dir, clock))
			if err != nil {
				t.Fatal(err)
			}
			sub, err := c1.Submit(SubmitRequest{Spec: testSpec()})
			if err != nil {
				t.Fatal(err)
			}
			l, ok := c1.Lease("w")
			if !ok || l.Shard.Index != 0 {
				t.Fatalf("lease = %+v (ok %v), want shard 0", l, ok)
			}
			recs := stubRecords(t, l.Spec, l.Shard)
			if tc.failed > 0 {
				recs[0].Err = "job failed"
			}
			if _, err := c1.Complete(l.LeaseID, recs); err != nil {
				t.Fatal(err)
			}
			c1.Close()

			// Reopen the journal over a store that lacks shard 0's records.
			opt := journaledOptions(t, t.TempDir(), clock)
			opt.Journal = filepath.Join(dir, "fleet.journal")
			c2, err := NewCoordinator(opt)
			if err != nil {
				t.Fatal(err)
			}
			defer c2.Close()
			st, _ := c2.Status(sub.ID)
			queued := c2.Metrics().QueueDepth
			if tc.failed == 0 && (st.State != "running" || st.ShardsDone != 0 || queued != 2) {
				t.Fatalf("after reopen: %+v with %d queued, want running with shard 0 queued again", st, queued)
			}
			if tc.failed > 0 && (st.ShardsDone != 1 || st.JobsFailed != 1 || queued != 1) {
				t.Fatalf("after reopen: %+v with %d queued, want shard 0 settled with 1 failed job", st, queued)
			}
		})
	}
}

// TestEmptyCompletionSettlesShardFailed: a completion is read against
// the store, not taken at its word. A shard completed with no records
// settles with every job failed, live and after a restart on the
// journal, instead of reading clean live and running after the restart.
func TestEmptyCompletionSettlesShardFailed(t *testing.T) {
	dir := t.TempDir()
	opt := journaledOptions(t, dir, newFakeClock())
	c1, err := NewCoordinator(opt)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := c1.Submit(SubmitRequest{Spec: testSpec()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sub.Shards; i++ {
		l, ok := c1.Lease("w")
		if !ok {
			t.Fatalf("no lease for shard %d", i)
		}
		resp, err := c1.Complete(l.LeaseID, nil)
		if err != nil {
			t.Fatalf("empty Complete %s: %v", l.LeaseID, err)
		}
		if resp.Failed != 2 {
			t.Errorf("empty Complete %s = %+v, want its 2 jobs failed", l.LeaseID, resp)
		}
	}
	want := func(when string, c *Coordinator) {
		t.Helper()
		st, _ := c.Status(sub.ID)
		if st.State != "done" || st.ShardsDone != 2 || st.JobsFailed != sub.Jobs {
			t.Errorf("%s: %s, %d/2 shards, %d failed; want done with all %d jobs failed", when, st.State, st.ShardsDone, st.JobsFailed, sub.Jobs)
		}
	}
	want("live", c1)
	if m := c1.Metrics(); m.JobsCompleted != 0 || m.JobsFailed != 4 || m.JournalSyncs != 3 {
		t.Errorf("live metrics %+v, want 0 completed, 4 failed, submit and two completes journaled", m)
	}
	c1.Close()

	c2, err := NewCoordinator(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	want("after restart", c2)
}

// TestJournalDisabledKeepsOldBehavior: without Options.Journal nothing
// touches disk beyond the store and a restart starts empty — the
// documented in-memory mode.
func TestJournalDisabledKeepsOldBehavior(t *testing.T) {
	dir := t.TempDir()
	ss, err := campaign.OpenShardedStore(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	c1, err := NewCoordinator(Options{Store: ss, ShardSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Submit(SubmitRequest{Spec: testSpec()}); err != nil {
		t.Fatal(err)
	}
	if m := c1.Metrics(); m.JournalSyncs != 0 || m.JournalSizeBytes != 0 {
		t.Fatalf("journal metrics nonzero without a journal: %+v", m)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "store" {
		t.Fatalf("unexpected files without journal: %v", entries)
	}
	if err := c1.Close(); err != nil {
		t.Fatalf("Close without journal: %v", err)
	}
	c2, err := NewCoordinator(Options{Store: ss, ShardSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if m := c2.Metrics(); m.CampaignsTotal != 0 || c2.Recovered() != 0 {
		t.Fatalf("journal-less restart recovered state: %+v", m)
	}
}

// TestSweepReturnsLeasesSorted pins the determinism of the expiry
// sweep: several leases expiring in one sweep come back in lease-id
// order regardless of map iteration order, so their shards re-queue
// identically on every run.
func TestSweepReturnsLeasesSorted(t *testing.T) {
	clock := newFakeClock()
	for trial := 0; trial < 20; trial++ {
		c := newTestCoordinator(t, clock, Options{ShardSize: 1})
		if _, err := c.Submit(SubmitRequest{Spec: testSpec(0.1, 0.2, 0.3, 0.4, 0.5, 0.6)}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			if _, ok := c.Lease("w"); !ok {
				t.Fatal("no lease")
			}
		}
		c.mu.Lock()
		swept := c.overdueLocked(clock.Now().Add(time.Minute))
		c.mu.Unlock()
		if len(swept) != 12 {
			t.Fatalf("swept %d leases, want 12", len(swept))
		}
		if !sort.StringsAreSorted(swept) {
			t.Fatalf("sweep order not sorted: %v", swept)
		}
	}
}

// TestWorkerJitterTinyPollInterval: PollInterval at or below 1ns used
// to panic in rand.Int63n (non-positive bound). The jitter window now
// clamps to >= 1ns.
func TestWorkerJitterTinyPollInterval(t *testing.T) {
	w, err := NewWorker(WorkerOptions{Coordinator: "http://localhost:0", Name: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []time.Duration{0, 1, 2, 3} {
		if got := w.jitter(d); got < 1 {
			t.Fatalf("jitter(%d) = %d, want >= 1", d, got)
		}
	}
}

// TestJournalCancelSurvivesRestart: a cancel is journaled, so a
// coordinator restarted on the journal keeps the campaign cancelled:
// its queued shards stay dropped and off the outstanding count, nothing
// re-queues the shard in flight at the cancel, and its holder's
// completion still lands.
func TestJournalCancelSurvivesRestart(t *testing.T) {
	t.Run("log", func(t *testing.T) {
		dir := t.TempDir()
		clock := newFakeClock()
		opt := journaledOptions(t, dir, clock)
		opt.ShardSize = 1
		spec := testSpec() // 4 shards of 1 job
		c1, err := NewCoordinator(opt)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := c1.Submit(SubmitRequest{Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		l1, _ := c1.Lease("w1")
		l2, _ := c1.Lease("w2")
		if _, err := c1.Complete(l1.LeaseID, stubRecords(t, spec, l1.Shard)); err != nil {
			t.Fatal(err)
		}
		c1.Cancel(sub.ID)
		// No Close: the crash leaves the journal as the last append synced it.

		c2, err := NewCoordinator(journaledOptions(t, dir, clock))
		if err != nil {
			t.Fatalf("restart: %v", err)
		}
		st, _ := c2.Status(sub.ID)
		if st.State != "cancelled" || st.ShardsDone != 1 || st.ShardsLeased != 0 {
			t.Fatalf("after restart: %+v, want cancelled with 1 shard done and none leased", st)
		}
		if m := c2.Metrics(); m.QueueDepth != 0 || m.Outstanding != 0 || m.CampaignsRunning != 0 {
			t.Fatalf("after restart: %+v, want nothing queued or in flight", m)
		}
		if l, ok := c2.Lease("w3"); ok {
			t.Fatalf("restarted coordinator granted %+v of a cancelled campaign", l)
		}
		if c2.Renew(l2.LeaseID) {
			t.Fatal("a renew re-adopted a shard of a cancelled campaign")
		}
		if _, err := c2.Complete(l2.LeaseID, stubRecords(t, spec, l2.Shard)); err != nil {
			t.Fatalf("complete the in-flight shard: %v", err)
		}
		if st, _ := c2.Status(sub.ID); st.State != "cancelled" || st.ShardsDone != 2 {
			t.Fatalf("after the in-flight completion: %+v", st)
		}
		c2.Close()
	})
}
