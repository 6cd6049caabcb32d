package fleet

import (
	"bytes"
	"encoding/json"
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

// TestJournalRecoversQueuedCampaignsAndLeases is the tentpole's core
// check at the API level: a coordinator killed (dropped without
// shutdown) after submits, grants, completes and renews comes back with
// the same campaigns, queue depth, outstanding jobs and campaign-id
// sequence — and the in-flight lease is restored with a fresh TTL so
// the worker holding it renews and completes instead of getting an
// unknown-lease error.
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
	c1.WaitCompactions()
	before := c1.Metrics()
	stBefore := c1.Statuses()
	// No Close: the crash leaves the journal exactly as the last append
	// synced it.

	// Burn most of the in-flight lease's TTL before the restart, so the
	// fresh-TTL guarantee below is actually load-bearing: a restored
	// deadline copied from grant time would already be near expiry.
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
		after.QueueDepth != before.QueueDepth ||
		after.LeasesActive != before.LeasesActive ||
		after.Outstanding != before.Outstanding {
		t.Fatalf("state diverged across restart:\nbefore %+v\nafter  %+v", before, after)
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

	// Fresh TTL: 25s burned before restart, now burn 20 more — past the
	// original deadline, inside the restored one.
	clock.Advance(20 * time.Second)
	if !c2.Renew(l2.LeaseID) {
		t.Fatal("restored lease did not renew (TTL not refreshed at recovery?)")
	}
	if _, err := c2.Complete(l2.LeaseID, stubRecords(t, l2.Spec, l2.Shard)); err != nil {
		t.Fatalf("complete restored lease: %v", err)
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
	c2.WaitCompactions()
	if err := c2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestJournalSurvivesCrashBetweenGrantAndComplete pins the narrowest
// crash window: a shard granted but never completed recovers as an
// active lease, and the worker that held it — which never heard about
// the crash — completes against the restarted coordinator.
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
	if m := c2.Metrics(); m.LeasesActive != 1 || m.QueueDepth != 1 {
		t.Fatalf("after restart: %+v, want 1 active lease + 1 queued shard", m)
	}
	// The worker never heard about the crash; its completion resolves.
	if _, err := c2.Complete(l.LeaseID, stubRecords(t, l.Spec, l.Shard)); err != nil {
		t.Fatalf("complete across restart: %v", err)
	}
	c2.WaitCompactions()
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
	l, ok := c2.Lease("w1")
	if !ok {
		t.Fatal("no lease")
	}
	if _, err := c2.Complete(l.LeaseID, stubRecords(t, l.Spec, l.Shard)); err != nil {
		t.Fatal(err)
	}
	c2.WaitCompactions()
	c2.Close()
	c3, err := NewCoordinator(journaledOptions(t, dir, clock))
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	if m := c3.Metrics(); m.CampaignsTotal != 1 || m.LeasesActive != 0 {
		t.Fatalf("third open state: %+v", m)
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
	if _, err := c1.Submit(SubmitRequest{Spec: testSpec()}); err != nil {
		t.Fatal(err)
	}
	if _, ok := c1.Lease("w1"); !ok {
		t.Fatal("no lease")
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

// TestSnapshotOutOfRangeShardFailsOpen: a snapshot whose active lease
// or tombstone names a shard its campaign does not have must fail the
// open, naming the lease, instead of installing a lease that panics the
// first settle or expiry that indexes the campaign's shards.
func TestSnapshotOutOfRangeShardFailsOpen(t *testing.T) {
	spec := testSpec()
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	bad := snapLease{ID: "l000001", Campaign: "c0001", Shard: 99, Jobs: 2, Worker: "w1"}
	for name, snap := range map[string]journalSnapshot{
		"lease":     {Leases: []snapLease{bad}},
		"tombstone": {History: []snapLease{bad}},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			snap.Seq, snap.LeaseSeq = 1, 1
			snap.Campaigns = []snapCampaign{{ID: "c0001", SpecHash: spec.Hash(), ShardSize: 2, Spec: spec, Queued: []int{1}}}
			line, err := json.Marshal(journalRecord{Op: opSnapshot, Snapshot: &snap})
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "fleet.journal"), append(line, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = NewCoordinator(journaledOptions(t, dir, newFakeClock()))
			if err == nil || !strings.Contains(err.Error(), "l000001") || !strings.Contains(err.Error(), "out of range") {
				t.Fatalf("open over a snapshot naming shard 99 = %v, want an out-of-range error naming l000001", err)
			}
		})
	}
}

// TestParentJournalsReplay: journals written by the coordinator before
// tenants were removed still open. testdata holds a plain log whose
// submits carry tenant and weight and which holds renew records, and a
// rotated journal whose snapshot carries tenant, pass and stride (three
// tenants at weights 2, 1 and 0.5; a completion, an expiry, a cancel
// with a lease in flight). parent-journals.want.json is what that
// coordinator replayed each to on an empty store, with the status
// "tenant" field dropped and outstanding the sum of its per-tenant
// queued and inflight job counts. Replay must reach the same state.
func TestParentJournalsReplay(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("testdata", "parent-journals.want.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]struct {
		Statuses     []map[string]any `json:"statuses"`
		QueueDepth   int              `json:"queue_depth"`
		LeasesActive int              `json:"leases_active"`
		Leases       []string         `json:"leases"`
		Outstanding  int              `json:"outstanding"`
	}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"parent-log.journal", "parent-snapshot.journal"} {
		t.Run(name, func(t *testing.T) {
			w, ok := want[name]
			if !ok {
				t.Fatalf("no expectation for %s", name)
			}
			journal, err := os.ReadFile(filepath.Join("testdata", name))
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "fleet.journal"), journal, 0o644); err != nil {
				t.Fatal(err)
			}
			c, err := NewCoordinator(journaledOptions(t, dir, newFakeClock()))
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer c.Close()
			sb, err := json.Marshal(c.Statuses())
			if err != nil {
				t.Fatal(err)
			}
			var statuses []map[string]any
			if err := json.Unmarshal(sb, &statuses); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(statuses, w.Statuses) {
				t.Errorf("statuses:\n got %v\nwant %v", statuses, w.Statuses)
			}
			m := c.Metrics()
			if m.QueueDepth != w.QueueDepth || m.LeasesActive != w.LeasesActive || m.Outstanding != w.Outstanding {
				t.Errorf("queue %d, leases %d, outstanding %d; want %d, %d, %d",
					m.QueueDepth, m.LeasesActive, m.Outstanding, w.QueueDepth, w.LeasesActive, w.Outstanding)
			}
			var leases []string
			for id := range c.leases.active {
				leases = append(leases, id)
			}
			sort.Strings(leases)
			if !reflect.DeepEqual(leases, w.Leases) {
				t.Errorf("active leases %v, want %v", leases, w.Leases)
			}
		})
	}
}

// TestJournalRotationSnapshotRoundTrip forces a rotation on every
// transition (threshold 1 byte) and checks that (a) the journal stays
// one snapshot plus at most the tail since the last rotation, and (b) a
// restart from a rotated journal reconstructs the same state a restart
// from the full log would — including expiry history and the WFQ pass,
// exercised by finishing the campaign identically.
func TestJournalRotationSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	opt := journaledOptions(t, dir, clock)
	opt.JournalRotateBytes = 1 // rotate on every append
	c1, err := NewCoordinator(opt)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec()
	sub, err := c1.Submit(SubmitRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	// One shard completes; one lease expires (giving the snapshot an
	// expiry count and a re-queued shard); one lease stays active.
	l1, _ := c1.Lease("w1")
	if _, err := c1.Complete(l1.LeaseID, stubRecords(t, spec, l1.Shard)); err != nil {
		t.Fatal(err)
	}
	l2, ok := c1.Lease("doomed")
	if !ok {
		t.Fatal("no second lease")
	}
	clock.Advance(31 * time.Second)
	l3, ok := c1.Lease("w2") // sweeps l2, re-grants its shard
	if !ok {
		t.Fatal("no re-lease after expiry")
	}
	if l3.Shard.Index != l2.Shard.Index {
		t.Fatalf("re-lease shard = %d, want expired %d", l3.Shard.Index, l2.Shard.Index)
	}
	c1.WaitCompactions()
	m1 := c1.Metrics()
	if m1.JournalRotations == 0 {
		t.Fatalf("no rotations with 1-byte threshold: %+v", m1)
	}

	// The rotated journal is compact: a snapshot line plus at most the
	// few records appended since the last rotation.
	data, err := os.ReadFile(filepath.Join(dir, "fleet.journal"))
	if err != nil {
		t.Fatal(err)
	}
	var sawSnapshot bool
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("rotated journal line unparseable: %v", err)
		}
		if rec.Op == opSnapshot {
			sawSnapshot = true
		}
	}
	if !sawSnapshot {
		t.Fatal("rotated journal has no snapshot record")
	}

	c2, err := NewCoordinator(opt)
	if err != nil {
		t.Fatalf("restart from rotated journal: %v", err)
	}
	m2 := c2.Metrics()
	if m2.CampaignsTotal != m1.CampaignsTotal || m2.QueueDepth != m1.QueueDepth ||
		m2.LeasesActive != m1.LeasesActive || m2.LeasesExpired != m1.LeasesExpired {
		t.Fatalf("rotated-journal restart diverged:\nbefore %+v\nafter  %+v", m1, m2)
	}
	// The restored active lease still resolves, and the campaign
	// finishes.
	if _, err := c2.Complete(l3.LeaseID, stubRecords(t, spec, l3.Shard)); err != nil {
		t.Fatalf("complete restored lease: %v", err)
	}
	st, _ := c2.Status(sub.ID)
	if st.State != "done" || st.ShardsDone != 2 {
		t.Fatalf("campaign after rotated recovery = %+v", st)
	}
	c2.WaitCompactions()
	c2.Close()
}

// TestJournalDrainStateSurvivesRestart: a coordinator killed mid-drain
// comes back draining (so the restart finishes the shutdown), and
// Resume — what cmd/nocsimd calls after a deliberate restart — reopens
// it for business, journaled so the next restart stays open too.
func TestJournalDrainStateSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	c1, err := NewCoordinator(journaledOptions(t, dir, clock))
	if err != nil {
		t.Fatal(err)
	}
	c1.Drain()

	c2, err := NewCoordinator(journaledOptions(t, dir, clock))
	if err != nil {
		t.Fatal(err)
	}
	if !c2.Draining() {
		t.Fatal("drain state lost across restart")
	}
	c2.Resume()
	c2.Close()

	c3, err := NewCoordinator(journaledOptions(t, dir, clock))
	if err != nil {
		t.Fatal(err)
	}
	if c3.Draining() {
		t.Fatal("resume not journaled: third open is draining again")
	}
	c3.Close()
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
	if m := c1.Metrics(); m.JournalEnabled || m.JournalRecords != 0 {
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

// TestSweepReturnsLeasesSorted pins the determinism fix in
// leaseTable.overdue: several leases expiring in one sweep come back in
// lease-id order regardless of map iteration order, so their shards
// re-queue identically on every run and on journal replay.
func TestSweepReturnsLeasesSorted(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	for trial := 0; trial < 20; trial++ {
		lt := newLeaseTable()
		for i := 0; i < 8; i++ {
			lt.grant("c0001", i, 1, "w", base.Add(time.Second))
		}
		swept := lt.overdue(base.Add(time.Minute))
		if len(swept) != 8 {
			t.Fatalf("swept %d leases, want 8", len(swept))
		}
		for i := 1; i < len(swept); i++ {
			if swept[i-1] >= swept[i] {
				t.Fatalf("sweep order not sorted: %s before %s", swept[i-1], swept[i])
			}
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
// coordinator restarted on the journal — replaying the log, or a
// rotation snapshot — keeps the campaign cancelled: its queued shards
// stay tombstoned and off the outstanding count, while the lease in flight
// at the cancel is restored and still completes.
func TestJournalCancelSurvivesRestart(t *testing.T) {
	for name, rotate := range map[string]int64{"log": 0, "snapshot": 1} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			clock := newFakeClock()
			opt := journaledOptions(t, dir, clock)
			opt.ShardSize, opt.JournalRotateBytes = 1, rotate
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
			c1.WaitCompactions()
			// No Close: the crash leaves the journal as the last append synced it.

			c2, err := NewCoordinator(journaledOptions(t, dir, clock))
			if err != nil {
				t.Fatalf("restart: %v", err)
			}
			if rotate > 0 {
				if m := c1.Metrics(); m.JournalRotations == 0 {
					t.Fatal("journal never rotated; the snapshot path went untested")
				}
			}
			st, _ := c2.Status(sub.ID)
			if st.State != "cancelled" || st.ShardsDone != 1 || st.ShardsLeased != 1 {
				t.Fatalf("after restart: %+v, want cancelled with 1 shard done and 1 leased", st)
			}
			if m := c2.Metrics(); m.QueueDepth != 0 || m.Outstanding != 1 || m.CampaignsRunning != 0 {
				t.Fatalf("after restart: %+v, want nothing queued and one job in flight", m)
			}
			if l, ok := c2.Lease("w3"); ok {
				t.Fatalf("restarted coordinator granted %+v of a cancelled campaign", l)
			}
			if _, err := c2.Complete(l2.LeaseID, stubRecords(t, spec, l2.Shard)); err != nil {
				t.Fatalf("complete restored lease: %v", err)
			}
			if st, _ := c2.Status(sub.ID); st.State != "cancelled" || st.ShardsDone != 2 {
				t.Fatalf("after the in-flight completion: %+v", st)
			}
			if m := c2.Metrics(); m.Outstanding != 0 {
				t.Fatalf("outstanding jobs not drained: %+v", m)
			}
			c2.WaitCompactions()
			c2.Close()
		})
	}
}
