package fleet

// The write-ahead journal makes the coordinator's control plane
// crash-recoverable. Every state transition — submit, grant, complete,
// expire, cancel, drain, resume — appends one JSONL record to the
// journal file before the transition is acknowledged to the caller, and
// NewCoordinator replays the file on startup to reconstruct campaigns,
// the WFQ queue and the lease table. The journal holds
// only control-plane bookkeeping: record *data* lives in the
// ShardedStore, which is why replay of a submit consults the store and
// fast-completes shards whose every record already landed — including
// shards completed after the submit was journaled. Active leases are
// restored with fresh TTLs so workers that kept computing across the
// restart renew and complete instead of being 410'd — which is also
// why renewals are not journaled: a replayed renew would change nothing.
//
// The file is an appendlog.Log, which owns the crash contract (one
// write per record, a torn trailer — a transition never acknowledged —
// cut at open, mid-file corruption fails the open loudly rather than
// silently dropping transitions). Every record is a transition that
// must not be lost, so every append is synced before it returns.
//
// Rotation bounds the file: once the journal outgrows rotateBytes, the
// coordinator snapshots its live state and atomically rewrites the
// journal to that one record, so replay cost is proportional to live
// state plus the tail since the last rotation, not to coordinator
// lifetime.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"tdmnoc/internal/appendlog"
	"tdmnoc/internal/campaign"
)

// Journal op codes, one per coordinator state transition.
const (
	opSubmit   = "submit"
	opGrant    = "grant"
	opComplete = "complete"
	opExpire   = "expire"
	opCancel   = "cancel"
	opDrain    = "drain"
	opResume   = "resume"
	opSnapshot = "snapshot"
)

// journalRecord is one JSONL line of the journal. Fields are shared
// across ops; unused ones are omitted.
type journalRecord struct {
	Op string `json:"op"`

	// submit: the admitted campaign's identity and normalized spec.
	// cancel names the campaign; grant/complete also name it, for
	// readability and replay sanity checks.
	Campaign  string         `json:"campaign,omitempty"`
	ShardSize int            `json:"shard_size,omitempty"`
	SpecHash  string         `json:"spec_hash,omitempty"`
	Spec      *campaign.Spec `json:"spec,omitempty"`

	// grant/complete: the lease and its shard.
	Lease  string `json:"lease,omitempty"`
	Shard  int    `json:"shard,omitempty"`
	Jobs   int    `json:"jobs,omitempty"`
	Worker string `json:"worker,omitempty"`

	// complete: job failures reported by the completion (failed records
	// are never persisted to the store, so the count must ride here).
	Failed int `json:"failed,omitempty"`

	// expire: the swept lease ids, in sorted order so replay re-queues
	// shards exactly as the live sweep did.
	Leases []string `json:"leases,omitempty"`

	// snapshot: the full live state written at rotation.
	Snapshot *journalSnapshot `json:"snapshot,omitempty"`
}

// journalSnapshot is the rotation checkpoint: everything needed to
// rebuild the control plane without the preceding log.
type journalSnapshot struct {
	Seq      int     `json:"seq"`       // campaign id counter
	LeaseSeq int     `json:"lease_seq"` // lease id counter
	Expired  int64   `json:"expired"`   // leases expired so far
	Draining bool    `json:"draining"`
	VTime    float64 `json:"vtime"` // WFQ virtual time

	Campaigns []snapCampaign `json:"campaigns"` // admission order
	Leases    []snapLease    `json:"leases,omitempty"`
	// History carries tombstones of non-active grants for unfinished
	// campaigns, so late completions still resolve after rotation.
	// Tombstones of finished campaigns are pruned: a straggler
	// completion for one gets an unknown-lease error, but its work is
	// already in the store.
	History []snapLease `json:"history,omitempty"`
}

type snapCampaign struct {
	ID        string        `json:"id"`
	SpecHash  string        `json:"spec_hash"`
	ShardSize int           `json:"shard_size"`
	Spec      campaign.Spec `json:"spec"`
	Done      []int         `json:"done,omitempty"` // done shard indices, ascending
	Failed    int           `json:"failed,omitempty"`
	Cancelled bool          `json:"cancelled,omitempty"`

	// Scheduling state, valid while the campaign is unfinished.
	Queued []int   `json:"queued,omitempty"` // pending shards, queue order
	Pass   float64 `json:"pass,omitempty"`
}

type snapLease struct {
	ID       string `json:"id"`
	Campaign string `json:"campaign"`
	Shard    int    `json:"shard"`
	Jobs     int    `json:"jobs"`
	Worker   string `json:"worker,omitempty"`
}

// journal is the append side of the write-ahead log. It is not
// self-locking for ordering purposes — the Coordinator serialises
// appends under its own mutex so journal order equals transition order
// — but keeps an internal mutex so metrics reads don't race the log.
type journal struct {
	mu       sync.Mutex
	log      *appendlog.Log
	rotateAt int64

	appends   int64
	syncs     int64
	rotations int64
	errors    int64
}

// openJournal opens (creating if needed) the journal at path and
// returns the append handle plus the records it holds.
func openJournal(path string, rotateAt int64) (*journal, []journalRecord, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, fmt.Errorf("fleet: journal dir: %w", err)
	}
	var recs []journalRecord
	log, err := appendlog.Open(path, func(line []byte) error {
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("fleet: open journal: %w", err)
	}
	return &journal{log: log, rotateAt: rotateAt}, recs, nil
}

// append writes one record and syncs it.
func (j *journal) append(rec journalRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("fleet: encode journal record: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.log.Append(b, true); err != nil {
		return fmt.Errorf("fleet: append journal record: %w", err)
	}
	j.appends++
	j.syncs++
	return nil
}

// shouldRotate reports whether the journal has outgrown its threshold.
func (j *journal) shouldRotate() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rotateAt > 0 && j.log.Size() > j.rotateAt
}

// rotate compacts the log: the snapshot becomes the sole record of a
// fresh file that atomically replaces the journal (see
// appendlog.Log.Rewrite).
func (j *journal) rotate(snap *journalSnapshot) error {
	b, err := json.Marshal(journalRecord{Op: opSnapshot, Snapshot: snap})
	if err != nil {
		return fmt.Errorf("fleet: encode snapshot: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.log.Rewrite(1, func(int) ([]byte, error) { return b, nil }); err != nil {
		return fmt.Errorf("fleet: rotate journal: %w", err)
	}
	j.appends++
	j.syncs++
	j.rotations++
	return nil
}

// close syncs and releases the journal file. Idempotent.
func (j *journal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.log.Sync()
	return j.log.Close()
}

// stats snapshots the journal counters for Metrics.
func (j *journal) stats() (appends, syncs, rotations, errs, size int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appends, j.syncs, j.rotations, j.errors, j.log.Size()
}

// countError bumps the append-failure counter (the coordinator logs the
// error itself; the counter makes it visible on /metrics).
func (j *journal) countError() {
	j.mu.Lock()
	j.errors++
	j.mu.Unlock()
}

// ---------------------------------------------------------------------
// Replay: journal records -> coordinator state. All replay methods run
// before the coordinator is published (no locking needed) and with
// c.journal still nil, so replaying never re-journals.

// replay applies the journal's records in order. Any structural
// inconsistency — an out-of-sequence campaign id, a spec that no longer
// hashes to its recorded fingerprint, a grant naming an unknown
// campaign — fails loudly: recovering wrong state would silently break
// the determinism contract, while refusing to start is visible and
// actionable.
func (c *Coordinator) replay(recs []journalRecord) error {
	for i, rec := range recs {
		var err error
		switch rec.Op {
		case opSnapshot:
			err = c.replaySnapshot(rec.Snapshot)
		case opSubmit:
			err = c.replaySubmit(rec)
		case opGrant:
			err = c.replayGrant(rec)
		case "renew":
			// Written by coordinators that journaled renewals; the grant
			// already restored the lease with a fresh TTL, so skip it.
		case opComplete:
			err = c.replayComplete(rec)
		case opExpire:
			c.expireLocked(rec.Leases)
		case opCancel:
			if fc := c.campaigns[rec.Campaign]; fc != nil {
				c.cancelLocked(fc)
			} else {
				err = fmt.Errorf("cancel names unknown campaign %s", rec.Campaign)
			}
		case opDrain:
			c.draining = true
		case opResume:
			c.draining = false
		default:
			err = fmt.Errorf("unknown op %q", rec.Op)
		}
		if err != nil {
			return fmt.Errorf("fleet: journal record %d (%s): %w", i+1, rec.Op, err)
		}
	}
	return nil
}

// replaySubmit re-admits a journaled campaign. The spec is re-hydrated
// (re-normalized and checked against its recorded hash, so version skew
// in spec semantics fails loudly instead of silently re-sharding), and
// shards whose every record is already in the store fast-complete
// exactly as they would on resubmit — which covers shards completed
// after this submit was journaled.
func (c *Coordinator) replaySubmit(rec journalRecord) error {
	if rec.Spec == nil {
		return errors.New("submit record without spec")
	}
	want := fmt.Sprintf("c%04d", c.seq+1)
	if rec.Campaign != want {
		return fmt.Errorf("campaign id %s out of sequence (want %s)", rec.Campaign, want)
	}
	spec, err := rec.Spec.Rehydrate(rec.SpecHash)
	if err != nil {
		return err
	}
	jobs, err := spec.Expand()
	if err != nil {
		return err
	}
	shardSize := rec.ShardSize
	if shardSize <= 0 {
		shardSize = c.opt.ShardSize
	}
	c.seq++
	c.admitLocked(rec.Campaign, shardSize, spec, jobs)
	return nil
}

// replayGrant re-creates an active lease with a fresh TTL, so a worker
// that held it across the restart renews and completes normally. A
// grant whose shard has since fast-completed from the store leaves only
// a tombstone: the shard is done, but the worker's eventual completion
// must still resolve.
func (c *Coordinator) replayGrant(rec journalRecord) error {
	fc := c.campaigns[rec.Campaign]
	if fc == nil {
		return fmt.Errorf("grant %s names unknown campaign %s", rec.Lease, rec.Campaign)
	}
	if rec.Shard < 0 || rec.Shard >= len(fc.shardKeys) {
		return fmt.Errorf("grant %s shard %d out of range", rec.Lease, rec.Shard)
	}
	var n int
	if _, err := fmt.Sscanf(rec.Lease, "l%d", &n); err != nil {
		return fmt.Errorf("grant lease id %q unparseable", rec.Lease)
	}
	if n > c.leases.seq {
		c.leases.seq = n
	}
	l := lease{
		id:       rec.Lease,
		campaign: rec.Campaign,
		shard:    rec.Shard,
		jobs:     rec.Jobs,
		worker:   rec.Worker,
		deadline: c.opt.Now().Add(c.opt.LeaseTTL),
	}
	if fc.done[rec.Shard] {
		c.leases.remember(l)
		return nil
	}
	c.queue.grant(rec.Campaign, rec.Shard)
	c.leases.restore(l)
	fc.leased[rec.Shard] = rec.Lease
	return nil
}

// replayComplete re-runs the control-plane half of Complete through the
// same two bodies the live path uses. The records themselves are
// already in the store (Complete persists before journaling), so only
// bookkeeping is reconstructed here.
func (c *Coordinator) replayComplete(rec journalRecord) error {
	l, fc, _, err := c.claimLocked(rec.Lease)
	if errors.Is(err, errUnknownLease) {
		// A duplicate completion against a tombstone pruned at rotation
		// (its campaign had finished). The original call changed no
		// shard state; skip.
		return nil
	}
	if err != nil {
		return err
	}
	c.settleLocked(fc, l, rec.Failed)
	return nil
}

// replaySnapshot rebuilds the full control plane from a rotation
// checkpoint, replacing whatever was accumulated so far (a snapshot is
// always the first record of a rotated journal).
func (c *Coordinator) replaySnapshot(s *journalSnapshot) error {
	if s == nil {
		return errors.New("snapshot record without snapshot")
	}
	c.campaigns = map[string]*fleetCampaign{}
	c.order = nil
	c.leases = newLeaseTable()
	c.queue = newWFQ()
	c.seq = s.Seq
	c.draining = s.Draining
	c.leases.seq = s.LeaseSeq
	c.leases.expired = s.Expired
	c.queue.vtime = s.VTime

	for _, sc := range s.Campaigns {
		spec, err := sc.Spec.Rehydrate(sc.SpecHash)
		if err != nil {
			return fmt.Errorf("campaign %s: %w", sc.ID, err)
		}
		jobs, err := spec.Expand()
		if err != nil {
			return fmt.Errorf("campaign %s: %w", sc.ID, err)
		}
		if sc.ShardSize <= 0 {
			return fmt.Errorf("campaign %s: shard size %d invalid", sc.ID, sc.ShardSize)
		}
		fc := newFleetCampaign(sc.ID, sc.ShardSize, spec, jobs)
		fc.failed = sc.Failed
		fc.cancelled = sc.Cancelled
		nShards := len(fc.shardKeys)
		for _, d := range sc.Done {
			if d < 0 || d >= nShards {
				return fmt.Errorf("campaign %s: done shard %d out of range", sc.ID, d)
			}
			if !fc.done[d] {
				fc.done[d] = true
				fc.doneCount++
			}
		}
		c.campaigns[fc.id] = fc
		c.order = append(c.order, fc.id)
		if fc.active() {
			for _, sh := range sc.Queued {
				if sh < 0 || sh >= nShards {
					return fmt.Errorf("campaign %s: queued shard %d out of range", sc.ID, sh)
				}
			}
			c.queue.entries[fc.id] = &queueEntry{
				id:      fc.id,
				pass:    sc.Pass,
				pending: append([]int(nil), sc.Queued...),
			}
		}
	}
	for _, sl := range s.History {
		if err := c.snapLeaseInRange("tombstone", sl); err != nil {
			return err
		}
		c.leases.remember(lease{id: sl.ID, campaign: sl.Campaign, shard: sl.Shard, jobs: sl.Jobs, worker: sl.Worker})
	}
	for _, sl := range s.Leases {
		if err := c.snapLeaseInRange("active lease", sl); err != nil {
			return err
		}
		fc := c.campaigns[sl.Campaign]
		c.leases.restore(lease{
			id:       sl.ID,
			campaign: sl.Campaign,
			shard:    sl.Shard,
			jobs:     sl.Jobs,
			worker:   sl.Worker,
			deadline: c.opt.Now().Add(c.opt.LeaseTTL),
		})
		fc.leased[sl.Shard] = sl.ID
	}
	return nil
}

// snapLeaseInRange checks that a snapshot lease names a known campaign
// and one of its shards, as replayGrant checks a grant: settling or
// expiring a lease indexes its campaign's shards, so a bad one must
// fail the open, not panic later under the coordinator lock.
func (c *Coordinator) snapLeaseInRange(kind string, sl snapLease) error {
	fc := c.campaigns[sl.Campaign]
	if fc == nil {
		return fmt.Errorf("%s %s names unknown campaign %s", kind, sl.ID, sl.Campaign)
	}
	if sl.Shard < 0 || sl.Shard >= len(fc.shardKeys) {
		return fmt.Errorf("%s %s shard %d out of range", kind, sl.ID, sl.Shard)
	}
	return nil
}

// snapshotLocked captures the live control plane for rotation. Caller
// holds c.mu.
func (c *Coordinator) snapshotLocked() *journalSnapshot {
	s := &journalSnapshot{
		Seq:      c.seq,
		LeaseSeq: c.leases.seq,
		Expired:  c.leases.expired,
		Draining: c.draining,
		VTime:    c.queue.vtime,
	}
	for _, id := range c.order {
		fc := c.campaigns[id]
		sc := snapCampaign{
			ID:        fc.id,
			SpecHash:  fc.specHash,
			ShardSize: fc.shardSize,
			Spec:      fc.spec,
			Failed:    fc.failed,
			Cancelled: fc.cancelled,
		}
		for i, d := range fc.done {
			if d {
				sc.Done = append(sc.Done, i)
			}
		}
		if e := c.queue.entries[id]; e != nil {
			sc.Queued = append([]int(nil), e.pending...)
			sc.Pass = e.pass
		}
		s.Campaigns = append(s.Campaigns, sc)
	}
	active := make([]string, 0, len(c.leases.active))
	for id := range c.leases.active {
		active = append(active, id)
	}
	sort.Strings(active)
	for _, id := range active {
		l := c.leases.active[id]
		s.Leases = append(s.Leases, snapLease{ID: l.id, Campaign: l.campaign, Shard: l.shard, Jobs: l.jobs, Worker: l.worker})
	}
	hist := make([]string, 0, len(c.leases.history))
	for id, l := range c.leases.history {
		if _, isActive := c.leases.active[id]; isActive {
			continue
		}
		fc := c.campaigns[l.campaign]
		if fc == nil || fc.finished() {
			continue
		}
		hist = append(hist, id)
	}
	sort.Strings(hist)
	for _, id := range hist {
		l := c.leases.history[id]
		s.History = append(s.History, snapLease{ID: l.id, Campaign: l.campaign, Shard: l.shard, Jobs: l.jobs, Worker: l.worker})
	}
	return s
}
