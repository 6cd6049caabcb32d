package fleet

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tdmnoc/internal/campaign"
	"tdmnoc/internal/stats"
)

// Options configures a Coordinator.
type Options struct {
	// Store is the content-addressed sharded result store (required).
	Store *campaign.ShardedStore
	// ShardSize is the number of jobs per lease (0 = 16). Smaller
	// shards steal better; larger shards amortise lease traffic.
	ShardSize int
	// LeaseTTL is how long a worker may go without renewing before its
	// shard is re-queued (0 = 45s).
	LeaseTTL time.Duration
	// MaxOutstanding bounds the outstanding (queued + leased) jobs of
	// all campaigns together; submits past it are rejected with a
	// QuotaError (0 = 100_000).
	MaxOutstanding int
	// Journal is the path of the write-ahead journal (empty = no
	// journal: coordinator state is in-memory only and a restart loses
	// queued campaigns, the pre-journal behavior). With a journal,
	// NewCoordinator replays it to reconstruct campaigns, the queue and
	// the lease table; active leases come back with fresh TTLs so
	// in-flight workers renew and complete normally.
	Journal string
	// JournalRotateBytes is the journal size past which the coordinator
	// rotates: live state is snapshotted into a fresh file that replaces
	// the log (0 = 4 MiB).
	JournalRotateBytes int64
	// Now is the clock (nil = time.Now). Tests inject a fake to drive
	// lease expiry deterministically.
	Now func() time.Time
}

// ErrDraining rejects submits while the coordinator drains.
var ErrDraining = errors.New("fleet: coordinator is draining")

// ErrJournal rejects a submit whose write-ahead record could not be
// made durable: admitting a campaign the journal does not know about
// would silently revive the restart-loses-campaigns bug the journal
// exists to fix.
var ErrJournal = errors.New("fleet: journal append failed")

// ErrStore fails a completion whose records the store could not
// persist. The shard is re-queued; the worker should retry, and its
// retry settles the shard once the store accepts the records.
var ErrStore = errors.New("fleet: store append failed")

// QuotaError rejects a submit that would take the outstanding jobs past
// Options.MaxOutstanding.
type QuotaError struct {
	Outstanding int
	Requested   int
	Quota       int
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("fleet: outstanding-jobs cap exceeded: %d outstanding + %d requested > %d",
		e.Outstanding, e.Requested, e.Quota)
}

// fleetCampaign is the coordinator's state for one admitted campaign.
type fleetCampaign struct {
	id       string
	specHash string
	spec     campaign.Spec
	jobs     int

	shardSize int
	shardKeys [][]string // job cache keys, per shard, in expansion order
	done      []bool
	doneCount int
	leased    map[int]string // shard -> active lease id
	failed    int            // job failures reported by completions
	cancelled bool           // queued shards tombstoned by Cancel
}

// newFleetCampaign builds a campaign's state with nothing done: the
// expanded job keys cut into shards of shardSize, the last one shorter.
// Admission and snapshot replay both start here, so both necessarily
// agree on what shard i contains.
func newFleetCampaign(id string, shardSize int, spec campaign.Spec, jobs []campaign.Job) *fleetCampaign {
	fc := &fleetCampaign{
		id:        id,
		specHash:  spec.Hash(),
		spec:      spec,
		jobs:      len(jobs),
		shardSize: shardSize,
		leased:    map[int]string{},
	}
	for lo := 0; lo < len(jobs); lo += shardSize {
		hi := min(lo+shardSize, len(jobs))
		keys := make([]string, 0, hi-lo)
		for _, j := range jobs[lo:hi] {
			keys = append(keys, j.Key)
		}
		fc.shardKeys = append(fc.shardKeys, keys)
	}
	fc.done = make([]bool, len(fc.shardKeys))
	return fc
}

func (fc *fleetCampaign) finished() bool { return fc.doneCount == len(fc.shardKeys) }

// active reports whether the campaign still has shards to hand out or
// wait for.
func (fc *fleetCampaign) active() bool { return !fc.finished() && !fc.cancelled }

// shardRecords resolves shard i's records against the store, in record
// order, and counts the missing ones. A plain shard's records are its
// jobs'. A policy study's shard runs both waves in its one lease, so its
// records are its grid points' wave-1 records and the wave-2 records
// derived from them (campaign.Spec.Resolve, the derivation the worker's
// RunSpec made).
func (c *Coordinator) shardRecords(fc *fleetCampaign, i int) (found []campaign.Record, missing int) {
	if fc.spec.PolicyProfile == nil {
		return c.opt.Store.LookupAll(fc.shardKeys[i])
	}
	jobs, err := fc.spec.ShardJobs(i, fc.shardSize)
	if err != nil {
		return nil, len(fc.shardKeys[i])
	}
	for _, r := range fc.spec.Resolve(jobs, c.opt.Store.Lookup) {
		if r.Err != "" {
			missing++
		} else {
			found = append(found, r)
		}
	}
	return found, missing
}

// Coordinator is the fleet's control plane: it admits campaigns,
// serves shard leases to pulling workers, persists completions into
// the sharded store, and re-queues the shards of workers that stop
// renewing. All state mutations run under one mutex — the work is
// bookkeeping; the heavy lifting (simulation) is the workers' problem
// and storage I/O is the store's.
type Coordinator struct {
	opt Options

	mu        sync.Mutex
	campaigns map[string]*fleetCampaign
	order     []string // campaign ids in admission order
	leases    *leaseTable
	queue     *wfq
	seq       int
	draining  bool
	telem     Telemetry

	// journal is the write-ahead log (nil without Options.Journal).
	// Appends happen under mu so journal order equals transition order;
	// it stays nil during replay so recovery never re-journals.
	journal         *journal
	journalReplayed int64

	submitsRejected  atomic.Int64
	jobsCompleted    atomic.Int64
	jobsFailed       atomic.Int64
	recordsPersisted atomic.Int64
	recordsDuplicate atomic.Int64
	shardsCompacted  atomic.Int64

	compactions sync.WaitGroup
}

// NewCoordinator builds a coordinator over the given store.
func NewCoordinator(opt Options) (*Coordinator, error) {
	if opt.Store == nil {
		return nil, errors.New("fleet: coordinator needs a store")
	}
	if opt.ShardSize <= 0 {
		opt.ShardSize = 16
	}
	if opt.LeaseTTL <= 0 {
		opt.LeaseTTL = 45 * time.Second
	}
	if opt.MaxOutstanding <= 0 {
		opt.MaxOutstanding = 100_000
	}
	if opt.Now == nil {
		opt.Now = time.Now
	}
	if opt.JournalRotateBytes <= 0 {
		opt.JournalRotateBytes = 4 << 20
	}
	c := &Coordinator{
		opt:       opt,
		campaigns: map[string]*fleetCampaign{},
		leases:    newLeaseTable(),
		queue:     newWFQ(),
	}
	if opt.Journal != "" {
		j, recs, err := openJournal(opt.Journal, opt.JournalRotateBytes)
		if err != nil {
			return nil, err
		}
		if err := c.replay(recs); err != nil {
			j.close()
			return nil, err
		}
		// Publish the journal only after replay: replay mutates state
		// through the same bodies as the live transitions (admitLocked,
		// claimLocked/settleLocked, expireLocked), and must not append
		// what it is reading back.
		c.journal = j
		c.journalReplayed = int64(len(recs))
	}
	return c, nil
}

// Recovered reports how many journal records NewCoordinator replayed
// (0 without a journal or on a fresh one).
func (c *Coordinator) Recovered() int64 { return c.journalReplayed }

// Close syncs and releases the journal (if any). Background
// compactions should be waited out separately (WaitCompactions).
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.journal == nil {
		return nil
	}
	return c.journal.close()
}

// logLocked appends and syncs a journal record under c.mu. Append
// failures on non-admission transitions are logged and counted rather
// than propagated: the in-memory transition has already happened and the
// worker's work is real — refusing it would discard results to protect
// bookkeeping. The counter (fleet_journal_errors_total) makes a sick
// disk visible; Submit is the one path that fails hard (ErrJournal),
// because rejecting a new campaign is cheap and admitting an
// unjournaled one is exactly the durability hole this log closes.
func (c *Coordinator) logLocked(rec journalRecord) {
	if c.journal == nil {
		return
	}
	if err := c.journal.append(rec); err != nil {
		c.journal.countError()
		fmt.Fprintf(os.Stderr, "fleet: journal: %v\n", err)
	}
}

// maybeRotateLocked snapshots and rotates the journal once it outgrows
// its threshold. Caller holds c.mu.
func (c *Coordinator) maybeRotateLocked() {
	if c.journal == nil || !c.journal.shouldRotate() {
		return
	}
	if err := c.journal.rotate(c.snapshotLocked()); err != nil {
		c.journal.countError()
		fmt.Fprintf(os.Stderr, "fleet: journal: %v\n", err)
	}
}

// Drain stops the coordinator from admitting campaigns or granting
// leases. Renewals and completions keep working so in-flight shards
// land before shutdown. Drain is journaled: a coordinator killed
// mid-drain comes back draining, so the restart finishes the shutdown
// it was performing instead of silently reopening for business.
func (c *Coordinator) Drain() {
	c.mu.Lock()
	if !c.draining {
		c.draining = true
		c.logLocked(journalRecord{Op: opDrain})
	}
	c.mu.Unlock()
}

// Resume reverses Drain: the coordinator admits and grants again. The
// operator-facing use is a journaled restart — replaying a drain record
// leaves the coordinator draining, and a deliberately restarted service
// should serve, so cmd/nocsimd calls Resume after recovery.
func (c *Coordinator) Resume() {
	c.mu.Lock()
	if c.draining {
		c.draining = false
		c.logLocked(journalRecord{Op: opResume})
	}
	c.mu.Unlock()
}

// Draining reports whether Drain was called.
func (c *Coordinator) Draining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.draining
}

// Idle reports whether no leases are active and no shards are queued —
// the drain-complete condition.
func (c *Coordinator) Idle() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.leases.active) == 0 && c.queue.depth() == 0
}

// Submit admits a campaign: normalizes and expands the spec, fast-
// completes shards whose every record is already in the store, and
// queues the rest for lease. Errors: ErrDraining, *QuotaError, or a
// spec validation error.
func (c *Coordinator) Submit(req SubmitRequest) (SubmitResponse, error) {
	spec := req.Spec
	if err := spec.Normalize(); err != nil {
		return SubmitResponse{}, err
	}
	n := spec.Jobs()
	if n == 0 {
		return SubmitResponse{}, errors.New("fleet: spec expands to zero jobs")
	}

	// Refuse on the job count before paying for the job list: the grid
	// is caller-sized, and expanding one the cap will reject anyway is
	// memory spent on the caller's say-so. Expansion then runs outside
	// the lock (it is the slow part of a submit), so the check repeats
	// once the lock is held for good.
	c.mu.Lock()
	err := c.admissibleLocked(n)
	c.mu.Unlock()
	if err != nil {
		return SubmitResponse{}, err
	}
	jobs, err := spec.Expand()
	if err != nil {
		return SubmitResponse{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.admissibleLocked(len(jobs)); err != nil {
		return SubmitResponse{}, err
	}

	// Write-ahead: the admission is journaled (and fsync'd) before any
	// state changes, so every campaign the coordinator ever
	// acknowledged is recoverable. A failed append rejects the submit —
	// the one transition where refusing is cheap and admitting
	// unjournaled would reopen the restart-loses-campaigns hole.
	id := fmt.Sprintf("c%04d", c.seq+1)
	if c.journal != nil {
		rec := journalRecord{
			Op: opSubmit, Campaign: id,
			ShardSize: c.opt.ShardSize, SpecHash: spec.Hash(), Spec: &spec,
		}
		if err := c.journal.append(rec); err != nil {
			c.journal.countError()
			return SubmitResponse{}, fmt.Errorf("%w: %v", ErrJournal, err)
		}
	}
	c.seq++
	fc := c.admitLocked(id, c.opt.ShardSize, spec, jobs)
	c.maybeRotateLocked()
	return SubmitResponse{
		ID:           fc.id,
		SpecHash:     fc.specHash,
		Jobs:         fc.jobs,
		Shards:       len(fc.shardKeys),
		CachedShards: fc.doneCount,
		StatusURL:    "/fleet/campaigns/" + fc.id,
	}, nil
}

// admissibleLocked is the admission gate: no submits while draining, and
// none that would take the outstanding jobs past the cap. The cap
// protects coordinator memory and store churn, so a client refused by
// it backs off (429 + Retry-After) instead of the coordinator OOMing.
func (c *Coordinator) admissibleLocked(jobs int) error {
	if c.draining {
		c.submitsRejected.Add(1)
		return ErrDraining
	}
	if out := c.outstandingLocked(); out+jobs > c.opt.MaxOutstanding {
		c.submitsRejected.Add(1)
		return &QuotaError{Outstanding: out, Requested: jobs, Quota: c.opt.MaxOutstanding}
	}
	return nil
}

// outstandingLocked is the job count the cap bounds: the jobs of every
// queued shard plus those of every active lease. It is derived from the
// queue and the lease table on demand rather than kept in step with
// every transition, so no transition can make it drift.
func (c *Coordinator) outstandingLocked() int {
	n := 0
	for id, e := range c.queue.entries {
		keys := c.campaigns[id].shardKeys
		for _, sh := range e.pending {
			n += len(keys[sh])
		}
	}
	for _, l := range c.leases.active {
		n += l.jobs
	}
	return n
}

// admitLocked installs an admitted campaign: builds its shard key
// lists, fast-completes shards whose every record is already in the
// store, and queues the rest. Shared by Submit and journal replay —
// which is what makes replay honor store contents newer than the
// submit record: a shard completed after admission fast-completes when
// the submit replays, exactly as it would on resubmit. Caller holds
// c.mu and has already advanced c.seq.
func (c *Coordinator) admitLocked(id string, shardSize int, spec campaign.Spec, jobs []campaign.Job) *fleetCampaign {
	fc := newFleetCampaign(id, shardSize, spec, jobs)
	var pending []int
	for i := range fc.shardKeys {
		if _, missing := c.shardRecords(fc, i); missing == 0 {
			// Every record already exists — a prior campaign (or an
			// interrupted run of this one) computed this shard. Complete
			// it at admission: the distributed analogue of store resume.
			fc.done[i] = true
			fc.doneCount++
			continue
		}
		pending = append(pending, i)
	}
	c.campaigns[fc.id] = fc
	c.order = append(c.order, fc.id)
	if !fc.finished() {
		c.queue.add(fc.id, pending)
	}
	return fc
}

// Lease grants the next shard under equal-share order, or reports
// no work (also the draining response — workers see an idle
// coordinator and back off).
func (c *Coordinator) Lease(worker string) (LeaseResponse, bool) {
	now := c.opt.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked(now)
	if c.draining {
		return LeaseResponse{}, false
	}
	id, shard, ok := c.queue.pick()
	if !ok {
		return LeaseResponse{}, false
	}
	fc := c.campaigns[id]
	jobs := len(fc.shardKeys[shard])
	l := c.leases.grant(id, shard, jobs, worker, now.Add(c.opt.LeaseTTL))
	fc.leased[shard] = l.id
	// Journal before the response leaves the lock: once a worker holds
	// the lease id, a restart must be able to resolve it.
	c.logLocked(journalRecord{
		Op: opGrant, Campaign: id, Lease: l.id, Shard: shard, Jobs: jobs, Worker: worker,
	})
	c.maybeRotateLocked()
	return LeaseResponse{
		LeaseID:  l.id,
		Campaign: id,
		Spec:     fc.spec,
		Shard:    campaign.Shard{Index: shard, Size: fc.shardSize},
		Jobs:     jobs,
		TTL:      c.opt.LeaseTTL,
	}, true
}

// Renew extends a lease, reporting whether it was still active. A
// false return tells the worker its shard has been re-queued (it may
// keep computing — the completion will still be accepted and deduped —
// but should not count on exclusivity).
func (c *Coordinator) Renew(id string) bool {
	now := c.opt.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked(now)
	// Not journaled: recovery restores every active lease with a fresh
	// TTL, so a replayed renew would change nothing.
	return c.leases.renew(id, now.Add(c.opt.LeaseTTL))
}

// errUnknownLease is claimLocked's answer for an id never granted (or,
// in replay, a tombstone pruned at rotation).
var errUnknownLease = errors.New("unknown lease")

// claimLocked is the first half of a completion, shared by Complete and
// journal replay: resolve the lease — active, expired or superseded —
// and retire it from the active table, so it can neither expire nor be
// renewed while its records are being persisted.
func (c *Coordinator) claimLocked(id string) (l lease, fc *fleetCampaign, wasActive bool, err error) {
	l, known := c.leases.resolve(id)
	if !known {
		return l, nil, false, errUnknownLease
	}
	if fc = c.campaigns[l.campaign]; fc == nil {
		return l, nil, false, fmt.Errorf("lease %s names unknown campaign %s", id, l.campaign)
	}
	_, wasActive = c.leases.drop(id)
	return l, fc, wasActive, nil
}

// settleLocked is the second half, likewise shared: if this is the
// first completion of the shard, mark it done and retire whatever else
// claims it. Reports whether it was the first.
func (c *Coordinator) settleLocked(fc *fleetCampaign, l lease, failed int) bool {
	if fc.leased[l.shard] == l.id {
		delete(fc.leased, l.shard)
	}
	if fc.done[l.shard] {
		return false
	}
	fc.done[l.shard] = true
	fc.doneCount++
	fc.failed += failed
	// Retire whatever else claims this shard: a racing re-grant's
	// lease, or the shard sitting back in the queue after expiry.
	if other, ok := fc.leased[l.shard]; ok {
		c.leases.drop(other)
		delete(fc.leased, l.shard)
	}
	c.queue.take(fc.id, l.shard)
	if fc.finished() {
		c.queue.remove(fc.id)
	}
	return true
}

// Complete lands a shard's records. The lease may be expired or even
// superseded by a re-grant — determinism makes the records equally
// valid, so they are persisted (deduped by the store), the shard is
// marked done, and any racing lease or queue entry for it is retired.
// Unknown lease ids return an error; a store that refuses a record
// returns ErrStore with the shard back in the queue.
func (c *Coordinator) Complete(id string, recs []campaign.Record) (CompleteResponse, error) {
	return c.complete(id, recs, false)
}

// persist writes one record into the store; a new write is counted and
// its telemetry folded into the /metrics aggregate. Complete runs every
// record through it, and so does an in-process worker's engine as each
// job finishes.
func (c *Coordinator) persist(r campaign.Record) (bool, error) {
	wrote, err := c.opt.Store.Append(r)
	if err != nil || !wrote {
		return wrote, err
	}
	c.recordsPersisted.Add(1)
	if r.Telemetry != nil {
		c.mu.Lock()
		c.telem.add(r.Telemetry)
		c.mu.Unlock()
	}
	return true, nil
}

// localStore is an in-process worker's engine store: the coordinator's
// store, written through persist.
type localStore struct{ c *Coordinator }

func (s localStore) Lookup(key string) (campaign.Record, bool) { return s.c.opt.Store.Lookup(key) }

func (s localStore) Append(r campaign.Record) error {
	_, err := s.c.persist(r)
	return err
}

// complete is Complete. stored says the worker's engine already offered
// each record to the store (an in-process worker): the records go
// through persist again, so one the engine failed to write still fails
// the completion, but one already present is no duplicate.
func (c *Coordinator) complete(id string, recs []campaign.Record, stored bool) (CompleteResponse, error) {
	now := c.opt.Now()
	c.mu.Lock()
	c.sweepLocked(now)
	l, fc, wasActive, err := c.claimLocked(id)
	c.mu.Unlock()
	if err != nil {
		return CompleteResponse{}, fmt.Errorf("fleet: complete %s: %w", id, err)
	}

	// Persist outside the coordinator lock: the store has its own
	// locking, and a slow disk must not stall lease traffic.
	var resp CompleteResponse
	for _, r := range recs {
		if r.Err != "" {
			resp.Failed++
			continue
		}
		wrote, werr := c.persist(r)
		if werr != nil {
			err = fmt.Errorf("%w: record %s: %v", ErrStore, r.Key, werr)
			break
		}
		switch {
		case wrote:
			resp.Persisted++
		case !stored:
			resp.Duplicates++
		}
	}
	c.recordsDuplicate.Add(int64(resp.Duplicates))

	c.mu.Lock()
	if err != nil {
		// The claim retired the lease, so unless a racing completion
		// settled the shard meanwhile, nothing holds or queues it:
		// re-queue it as an expiry would. The worker's retry resolves the
		// lease's tombstone and settles the shard.
		if wasActive && !fc.done[l.shard] {
			c.leases.restore(l)
			c.expireLocked([]string{id})
			c.logLocked(journalRecord{Op: opExpire, Leases: []string{id}})
		}
		c.mu.Unlock()
		return resp, err
	}
	c.jobsFailed.Add(int64(resp.Failed))
	if c.settleLocked(fc, l, resp.Failed) {
		// What the shard posted, not its grid size: a policy study's
		// shard posts its wave-2 records too.
		c.jobsCompleted.Add(int64(len(recs) - resp.Failed))
	}
	// Journaled after the store append above: a journaled completion
	// implies its records are durable, so replay only reconstructs
	// bookkeeping and never needs the records themselves.
	c.logLocked(journalRecord{
		Op: opComplete, Campaign: l.campaign, Lease: id, Shard: l.shard, Failed: resp.Failed,
	})
	c.maybeRotateLocked()
	c.mu.Unlock()

	// Completions are when dead weight accrues (duplicate records from
	// re-leased shards); give the store a chance to reclaim it.
	c.compactions.Add(1)
	go func() {
		defer c.compactions.Done()
		n, err := c.opt.Store.MaybeCompact()
		if n > 0 {
			c.shardsCompacted.Add(int64(n))
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "fleet: compaction: %v\n", err)
		}
	}()
	return resp, nil
}

// Cancel stops a campaign: its queued shards are tombstoned — never
// leased again, their jobs off the outstanding count — while in-flight
// leases finish or expire without re-queueing. The campaign reads
// "cancelled" unless those leases complete its last shards. Cancelling
// a finished or cancelled campaign changes nothing. Cancel is
// journaled, so a restart does not revive what was cancelled; a
// resubmit of the spec resumes from the records that landed.
func (c *Coordinator) Cancel(id string) (CampaignStatus, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fc, ok := c.campaigns[id]
	if !ok {
		return CampaignStatus{}, false
	}
	if fc.active() {
		c.cancelLocked(fc)
		c.logLocked(journalRecord{Op: opCancel, Campaign: id})
		c.maybeRotateLocked()
	}
	return fc.statusLocked(), true
}

// cancelLocked is the cancel transition, shared by Cancel and journal
// replay.
func (c *Coordinator) cancelLocked(fc *fleetCampaign) {
	fc.cancelled = true
	c.queue.remove(fc.id)
}

// WaitCompactions blocks until background compactions kicked by
// completions have finished (tests and shutdown).
func (c *Coordinator) WaitCompactions() { c.compactions.Wait() }

// sweepLocked expires overdue leases and journals one expire record
// carrying their ids in sorted order, so replay re-queues shards exactly
// as the live sweep did and the rebuilt WFQ queue matches.
func (c *Coordinator) sweepLocked(now time.Time) {
	if ids := c.leases.overdue(now); len(ids) > 0 {
		c.expireLocked(ids)
		c.logLocked(journalRecord{Op: opExpire, Leases: ids})
	}
}

// expireLocked retires the named leases and re-queues their shards, in
// the order given. Shared by the live sweep and journal replay.
func (c *Coordinator) expireLocked(ids []string) {
	for _, id := range ids {
		l, ok := c.leases.drop(id)
		if !ok {
			continue
		}
		c.leases.expired++
		fc := c.campaigns[l.campaign]
		if fc == nil {
			continue
		}
		if fc.leased[l.shard] == l.id {
			delete(fc.leased, l.shard)
		}
		// A shard completed by another lease while this one idled has
		// nothing to re-run, and nothing re-runs a cancelled campaign's.
		if !fc.done[l.shard] && !fc.cancelled {
			c.queue.push(l.campaign, l.shard)
		}
	}
}

// statusLocked builds a CampaignStatus snapshot.
func (fc *fleetCampaign) statusLocked() CampaignStatus {
	state := "running"
	switch {
	case fc.finished():
		state = "done"
	case fc.cancelled:
		state = "cancelled"
	}
	return CampaignStatus{
		ID:           fc.id,
		SpecHash:     fc.specHash,
		State:        state,
		Jobs:         fc.jobs,
		Shards:       len(fc.shardKeys),
		ShardsDone:   fc.doneCount,
		ShardsLeased: len(fc.leased),
		JobsFailed:   fc.failed,
		Spec:         fc.spec,
	}
}

// Status returns one campaign's state.
func (c *Coordinator) Status(id string) (CampaignStatus, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fc, ok := c.campaigns[id]
	if !ok {
		return CampaignStatus{}, false
	}
	return fc.statusLocked(), true
}

// Statuses returns every campaign in admission order.
func (c *Coordinator) Statuses() []CampaignStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]CampaignStatus, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.campaigns[id].statusLocked())
	}
	return out
}

// Records resolves a campaign's records against the store, shard by
// shard in record order, reporting how many are still missing. With
// missing == 0 the slice is exactly what a single-process
// Engine.RunSpec would return (records marked Cached, as store hits
// are).
func (c *Coordinator) Records(id string) (found []campaign.Record, missing int, ok bool) {
	c.mu.Lock()
	fc, exists := c.campaigns[id]
	c.mu.Unlock()
	if !exists {
		return nil, 0, false
	}
	for i := range fc.shardKeys {
		f, m := c.shardRecords(fc, i)
		found, missing = append(found, f...), missing+m
	}
	return found, missing, true
}

// Summary merges a campaign's records into per-group (seed-folded)
// aggregates. Records are merged in job order, so the floating-point
// sums — and therefore the marshalled bytes — are identical to
// aggregating a single-process Engine run of the same spec.
func (c *Coordinator) Summary(id string) (map[string]stats.RunRecord, bool) {
	recs, _, ok := c.Records(id)
	if !ok {
		return nil, false
	}
	return campaign.Aggregate(recs, campaign.GroupWithoutSeed), true
}

// SummaryGroups returns a campaign's group keys in sorted order with
// their aggregates, the deterministic shape handlers marshal.
func SummaryGroups(m map[string]stats.RunRecord) ([]string, map[string]stats.RunRecord) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, m
}

// Metrics snapshots the coordinator counters.
func (c *Coordinator) Metrics() Metrics {
	c.mu.Lock()
	running := 0
	for _, fc := range c.campaigns {
		if fc.active() {
			running++
		}
	}
	m := Metrics{
		CampaignsTotal:   len(c.campaigns),
		CampaignsRunning: running,
		QueueDepth:       c.queue.depth(),
		LeasesActive:     len(c.leases.active),
		LeasesExpired:    c.leases.expired,
		Outstanding:      c.outstandingLocked(),
		Telemetry:        c.telem,
	}
	if c.journal != nil {
		m.JournalEnabled = true
		m.JournalReplayed = c.journalReplayed
		m.JournalRecords, m.JournalSyncs, m.JournalRotations, m.JournalErrors, m.JournalSizeBytes = c.journal.stats()
	}
	c.mu.Unlock()
	m.SubmitsRejected = c.submitsRejected.Load()
	m.JobsCompleted = c.jobsCompleted.Load()
	m.JobsFailed = c.jobsFailed.Load()
	m.RecordsPersisted = c.recordsPersisted.Load()
	m.RecordsDuplicate = c.recordsDuplicate.Load()
	m.ShardsCompacted = c.shardsCompacted.Load()
	m.StoreLive = c.opt.Store.Len()
	m.StoreDead = c.opt.Store.Dead()
	return m
}
