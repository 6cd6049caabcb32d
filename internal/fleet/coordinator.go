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
	// TenantQuota bounds a tenant's outstanding (queued + leased) jobs;
	// submits past it are rejected with a QuotaError (0 = 100_000).
	TenantQuota int
	// Journal is the path of the write-ahead journal (empty = no
	// journal: coordinator state is in-memory only and a restart loses
	// queued campaigns, the pre-journal behavior). With a journal,
	// NewCoordinator replays it to reconstruct campaigns, the queue,
	// tenant usage and the lease table; active leases come back with
	// fresh TTLs so in-flight workers renew and complete normally.
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

// QuotaError rejects a submit that would exceed the tenant's quota.
type QuotaError struct {
	Tenant      string
	Outstanding int
	Requested   int
	Quota       int
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("fleet: tenant %q quota exceeded: %d outstanding + %d requested > %d",
		e.Tenant, e.Outstanding, e.Requested, e.Quota)
}

// fleetCampaign is the coordinator's state for one admitted campaign.
type fleetCampaign struct {
	id       string
	tenant   string
	specHash string
	spec     campaign.Spec
	jobs     int

	shardSize int
	shardKeys [][]string // job cache keys, per shard, in expansion order
	done      []bool
	doneCount int
	leased    map[int]string // shard -> active lease id
	failed    int            // job failures reported by completions
}

// newFleetCampaign builds a campaign's state with nothing done: the
// expanded job keys cut into shards of shardSize, the last one shorter.
// Admission and snapshot replay both start here, so both necessarily
// agree on what shard i contains.
func newFleetCampaign(id, tenant string, shardSize int, spec campaign.Spec, jobs []campaign.Job) *fleetCampaign {
	fc := &fleetCampaign{
		id:        id,
		tenant:    tenant,
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
	usage     *tenantUsage
	seq       int
	draining  bool

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
	if opt.TenantQuota <= 0 {
		opt.TenantQuota = 100_000
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
		usage:     newTenantUsage(),
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

// logLocked appends a journal record under c.mu. Append failures on
// non-admission transitions are logged and counted rather than
// propagated: the in-memory transition has already happened and the
// worker's work is real — refusing it would discard results to protect
// bookkeeping. The counter (fleet_journal_errors_total) makes a sick
// disk visible; Submit is the one path that fails hard (ErrJournal),
// because rejecting a new campaign is cheap and admitting an
// unjournaled one is exactly the durability hole this log closes.
func (c *Coordinator) logLocked(rec journalRecord, sync bool) {
	if c.journal == nil {
		return
	}
	if err := c.journal.append(rec, sync); err != nil {
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
		c.logLocked(journalRecord{Op: opDrain}, true)
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
		c.logLocked(journalRecord{Op: opResume}, true)
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
	tenant := req.Tenant
	if tenant == "" {
		tenant = "default"
	}
	weight := req.Weight
	if weight <= 0 {
		weight = 1
	}

	// Refuse on the job count before paying for the job list: the grid
	// is caller-sized, and expanding one the quota will reject anyway is
	// memory spent on the caller's say-so. Expansion then runs outside
	// the lock (it is the slow part of a submit), so the check repeats
	// once the lock is held for good.
	c.mu.Lock()
	err := c.admissibleLocked(tenant, n)
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
	if err := c.admissibleLocked(tenant, len(jobs)); err != nil {
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
			Op: opSubmit, Campaign: id, Tenant: tenant, Weight: weight,
			ShardSize: c.opt.ShardSize, SpecHash: spec.Hash(), Spec: &spec,
		}
		if err := c.journal.append(rec, true); err != nil {
			c.journal.countError()
			return SubmitResponse{}, fmt.Errorf("%w: %v", ErrJournal, err)
		}
	}
	c.seq++
	fc := c.admitLocked(id, tenant, weight, c.opt.ShardSize, spec, jobs)
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
// none that would take the tenant past its quota.
func (c *Coordinator) admissibleLocked(tenant string, jobs int) error {
	if c.draining {
		c.submitsRejected.Add(1)
		return ErrDraining
	}
	if out := c.usage.outstanding(tenant); out+jobs > c.opt.TenantQuota {
		c.submitsRejected.Add(1)
		return &QuotaError{Tenant: tenant, Outstanding: out, Requested: jobs, Quota: c.opt.TenantQuota}
	}
	return nil
}

// admitLocked installs an admitted campaign: builds its shard key
// lists, fast-completes shards whose every record is already in the
// store, and queues the rest. Shared by Submit and journal replay —
// which is what makes replay honor store contents newer than the
// submit record: a shard completed after admission fast-completes when
// the submit replays, exactly as it would on resubmit. Caller holds
// c.mu and has already advanced c.seq.
func (c *Coordinator) admitLocked(id, tenant string, weight float64, shardSize int, spec campaign.Spec, jobs []campaign.Job) *fleetCampaign {
	fc := newFleetCampaign(id, tenant, shardSize, spec, jobs)
	var pending []int
	for i, keys := range fc.shardKeys {
		if _, missing := c.shardRecords(fc, i); missing == 0 {
			// Every record already exists — a prior campaign (or an
			// interrupted run of this one) computed this shard. Complete
			// it at admission: the distributed analogue of store resume.
			fc.done[i] = true
			fc.doneCount++
			continue
		}
		pending = append(pending, i)
		c.usage.addQueued(tenant, len(keys))
	}
	c.campaigns[fc.id] = fc
	c.order = append(c.order, fc.id)
	if !fc.finished() {
		c.queue.add(fc.id, tenant, weight, pending)
	}
	return fc
}

// Lease grants the next shard under weighted-fair order, or reports
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
	c.usage.lease(fc.tenant, jobs)
	// Journal before the response leaves the lock: once a worker holds
	// the lease id, a restart must be able to resolve it.
	c.logLocked(journalRecord{
		Op: opGrant, Campaign: id, Lease: l.id, Shard: shard, Jobs: jobs, Worker: worker,
	}, true)
	c.maybeRotateLocked()
	return LeaseResponse{
		LeaseID:  l.id,
		Campaign: id,
		Tenant:   fc.tenant,
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
	ok := c.leases.renew(id, now.Add(c.opt.LeaseTTL))
	if ok {
		// Unsynced: losing a renew record is harmless (recovery refreshes
		// every restored lease's TTL anyway), so renews ride until the
		// next synced append instead of paying an fsync per heartbeat.
		c.logLocked(journalRecord{Op: opRenew, Lease: id}, false)
	}
	return ok
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

// settleLocked is the second half, likewise shared: settle the tenant's
// accounting and, if this is the first completion of the shard, mark it
// done and retire whatever else claims it. Reports whether it was the
// first.
func (c *Coordinator) settleLocked(fc *fleetCampaign, l lease, wasActive bool, failed int) bool {
	if wasActive {
		c.usage.complete(fc.tenant, l.jobs)
	}
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
		if ol, active := c.leases.drop(other); active {
			c.usage.complete(fc.tenant, ol.jobs)
		}
		delete(fc.leased, l.shard)
	}
	if c.queue.take(fc.id, l.shard) {
		c.usage.addQueued(fc.tenant, -l.jobs)
	}
	if fc.finished() {
		c.queue.remove(fc.id)
	}
	return true
}

// Complete lands a shard's records. The lease may be expired or even
// superseded by a re-grant — determinism makes the records equally
// valid, so they are persisted (deduped by the store), the shard is
// marked done, and any racing lease or queue entry for it is retired.
// Unknown lease ids return an error.
func (c *Coordinator) Complete(id string, recs []campaign.Record) (CompleteResponse, error) {
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
		wrote, err := c.opt.Store.Append(r)
		if err != nil {
			return resp, fmt.Errorf("fleet: persist record %s: %w", r.Key, err)
		}
		if wrote {
			resp.Persisted++
		} else {
			resp.Duplicates++
		}
	}
	c.recordsPersisted.Add(int64(resp.Persisted))
	c.recordsDuplicate.Add(int64(resp.Duplicates))
	c.jobsFailed.Add(int64(resp.Failed))

	c.mu.Lock()
	if c.settleLocked(fc, l, wasActive, resp.Failed) {
		// What the shard posted, not its grid size: a policy study's
		// shard posts its wave-2 records too.
		c.jobsCompleted.Add(int64(len(recs) - resp.Failed))
	}
	// Journaled after the store append above: a journaled completion
	// implies its records are durable, so replay only reconstructs
	// bookkeeping and never needs the records themselves.
	c.logLocked(journalRecord{
		Op: opComplete, Campaign: l.campaign, Lease: id, Shard: l.shard, Failed: resp.Failed,
	}, true)
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

// WaitCompactions blocks until background compactions kicked by
// completions have finished (tests and shutdown).
func (c *Coordinator) WaitCompactions() { c.compactions.Wait() }

// sweepLocked expires overdue leases and journals one expire record
// carrying their ids in sorted order, so replay re-queues shards exactly
// as the live sweep did and the rebuilt WFQ queue matches.
func (c *Coordinator) sweepLocked(now time.Time) {
	if ids := c.leases.overdue(now); len(ids) > 0 {
		c.expireLocked(ids)
		c.logLocked(journalRecord{Op: opExpire, Leases: ids}, true)
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
		if fc.done[l.shard] {
			// Completed by another lease while this one idled; nothing
			// to re-queue. Accounting was settled by that completion.
			continue
		}
		c.queue.push(l.campaign, l.shard)
		c.usage.requeue(fc.tenant, l.jobs)
	}
}

// statusLocked builds a CampaignStatus snapshot.
func (fc *fleetCampaign) statusLocked() CampaignStatus {
	state := "running"
	if fc.finished() {
		state = "done"
	}
	return CampaignStatus{
		ID:           fc.id,
		Tenant:       fc.tenant,
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
		if !fc.finished() {
			running++
		}
	}
	m := Metrics{
		CampaignsTotal:      len(c.campaigns),
		CampaignsRunning:    running,
		QueueDepth:          c.queue.depth(),
		LeasesActive:        len(c.leases.active),
		LeasesExpired:       c.leases.expired,
		TenantInflight:      copyCounts(c.usage.inflight),
		TenantQueued:        copyCounts(c.usage.queued),
		AccountingUnderflow: c.usage.underflow,
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
