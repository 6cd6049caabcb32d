package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
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
	// Journal is the path of the campaign journal (empty = no journal:
	// coordinator state is in-memory only and a restart loses queued
	// campaigns, the pre-journal behavior). With a journal,
	// NewCoordinator replays it to bring back every campaign, with every
	// shard the store does not hold queued; the holder of a shard leased
	// before the restart takes it back with its next renew.
	Journal string
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
	// leaseSpec is the spec as every lease body of the campaign carries
	// it (see appendLease), coded once, at admission or replay.
	leaseSpec []byte
	jobs      int

	shardSize   int
	shardKeys   [][]string // job cache keys, per shard, in expansion order
	shardLabels [][]string // their jobs' labels, which records are served under
	done        []bool
	doneCount   int
	leased      map[int]time.Time // shard -> deadline of its lease
	failed      int               // job failures reported by completions
	cancelled   bool              // queued shards dropped by Cancel
}

// newFleetCampaign builds a campaign's state with nothing done: the
// expanded job keys cut into shards of shardSize, the last one shorter.
// Admission and replay both start here, so both necessarily agree on
// what shard i contains. Both pass a normalized spec, whose encoding is
// the one Spec.Hash hashes and every lease body carries.
func newFleetCampaign(id string, shardSize int, spec campaign.Spec, jobs []campaign.Job) *fleetCampaign {
	specJSON, err := json.Marshal(spec)
	if err != nil {
		panic(fmt.Sprintf("fleet: encode spec: %v", err)) // as Spec.Hash: a normalized spec always encodes
	}
	sum := sha256.Sum256(specJSON)
	fc := &fleetCampaign{
		id:        id,
		specHash:  hex.EncodeToString(sum[:]),
		spec:      spec,
		leaseSpec: leaseSpec(specJSON),
		jobs:      len(jobs),
		shardSize: shardSize,
		leased:    map[int]time.Time{},
	}
	for lo := 0; lo < len(jobs); lo += shardSize {
		hi := min(lo+shardSize, len(jobs))
		keys, labels := make([]string, 0, hi-lo), make([]string, 0, hi-lo)
		for _, j := range jobs[lo:hi] {
			keys, labels = append(keys, j.Key), append(labels, j.Label)
		}
		fc.shardKeys, fc.shardLabels = append(fc.shardKeys, keys), append(fc.shardLabels, labels)
	}
	fc.done = make([]bool, len(fc.shardKeys))
	return fc
}

func (fc *fleetCampaign) finished() bool { return fc.doneCount == len(fc.shardKeys) }

// active reports whether the campaign still has shards to hand out or
// wait for.
func (fc *fleetCampaign) active() bool { return !fc.finished() && !fc.cancelled }

// shardRecords resolves shard i's records against the store, in record
// order and under their jobs' labels (a key's stored record carries the
// label of whichever campaign ran it first), and counts the missing
// ones. A plain shard's records are its jobs'. A policy study's shard
// runs both waves in its one lease, so its records are its grid points'
// profiling records, then the re-runs they imply (campaign.Spec.Resolve
// walks the waves the worker's RunSpec ran).
func (c *Coordinator) shardRecords(fc *fleetCampaign, i int) (found []campaign.Record, missing int) {
	if fc.spec.PolicyProfile == nil {
		for k, key := range fc.shardKeys[i] {
			r, ok := c.opt.Store.Lookup(key)
			if !ok {
				missing++
				continue
			}
			r.Label = fc.shardLabels[i][k]
			found = append(found, r)
		}
		return found, missing
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
	queue     *wfq
	seq       int
	draining  bool
	telem     Telemetry

	// journal is the campaign journal (nil without Options.Journal).
	// Appends happen under mu so journal order equals transition order;
	// it stays nil during replay so recovery never re-journals.
	journal         *journal
	journalReplayed int64

	leasesExpired    atomic.Int64
	submitsRejected  atomic.Int64
	jobsCompleted    atomic.Int64
	jobsFailed       atomic.Int64
	recordsPersisted atomic.Int64
	recordsDuplicate atomic.Int64
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
	c := &Coordinator{
		opt:       opt,
		campaigns: map[string]*fleetCampaign{},
		queue:     newWFQ(),
	}
	if opt.Journal != "" {
		j, recs, err := openJournal(opt.Journal)
		if err != nil {
			return nil, err
		}
		if err := c.replay(recs); err != nil {
			j.close()
			return nil, err
		}
		// Publish the journal only after replay: replay mutates state
		// through the same bodies as the live transitions (admitLocked,
		// settleLocked, cancelLocked), and must not append what it is
		// reading back.
		c.journal = j
		c.journalReplayed = int64(len(recs))
	}
	return c, nil
}

// Recovered reports how many journal records NewCoordinator replayed
// (0 without a journal or on a fresh one).
func (c *Coordinator) Recovered() int64 { return c.journalReplayed }

// Close syncs and releases the journal (if any).
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.journal == nil {
		return nil
	}
	return c.journal.close()
}

// logLocked appends and syncs a journal record under c.mu. Append
// failures on cancel and complete are logged and counted rather than
// propagated: the in-memory transition has already happened and the
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
		fmt.Fprintf(os.Stderr, "fleet: journal: %v\n", err)
	}
}

// Drain stops the coordinator from admitting campaigns or granting
// leases. Renewals and completions keep working so in-flight shards
// land before shutdown. Drain is not journaled: a restart serves.
func (c *Coordinator) Drain() {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
}

// Resume reverses Drain: the coordinator admits and grants again.
// Nothing in the service calls it; the benchmark harness does.
func (c *Coordinator) Resume() {
	c.mu.Lock()
	c.draining = false
	c.mu.Unlock()
}

// Draining reports whether Drain was called.
func (c *Coordinator) Draining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.draining
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
			return SubmitResponse{}, fmt.Errorf("%w: %v", ErrJournal, err)
		}
	}
	c.seq++
	fc := c.admitLocked(id, c.opt.ShardSize, spec, jobs)
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
// queue and the leases on demand rather than kept in step with every
// transition, so no transition can make it drift.
func (c *Coordinator) outstandingLocked() int {
	n := 0
	for id, e := range c.queue.entries {
		keys := c.campaigns[id].shardKeys
		for _, sh := range e.pending {
			n += len(keys[sh])
		}
	}
	for _, fc := range c.campaigns {
		for sh := range fc.leased {
			n += len(fc.shardKeys[sh])
		}
	}
	return n
}

// leasesLocked counts the active leases.
func (c *Coordinator) leasesLocked() int {
	n := 0
	for _, fc := range c.campaigns {
		n += len(fc.leased)
	}
	return n
}

// leaseID names the lease on a shard. It is derived, not issued: the
// holder of shard i of campaign c0002 holds lease c0002.i, before a
// restart and after it, which is what lets a renew re-adopt the shard.
func leaseID(campaign string, shard int) string {
	return campaign + "." + strconv.Itoa(shard)
}

// leaseShard parses a lease id back to its campaign and shard; ok is
// false unless the id is exactly leaseID of a shard of a known campaign.
func (c *Coordinator) leaseShard(id string) (fc *fleetCampaign, shard int, ok bool) {
	cid, s, _ := strings.Cut(id, ".")
	fc = c.campaigns[cid]
	shard, err := strconv.Atoi(s)
	if fc == nil || err != nil || shard < 0 || shard >= len(fc.shardKeys) || leaseID(cid, shard) != id {
		return nil, 0, false
	}
	return fc, shard, true
}

// admitLocked installs an admitted campaign: builds its shard key
// lists, fast-completes shards whose every record is already in the
// store, and queues the rest. Shared by Submit and journal replay —
// which is what makes the store, not the journal, say which shards are
// done: a shard completed after admission fast-completes when the
// submit replays, exactly as it would on resubmit, and one whose
// records are missing is queued again. Caller holds c.mu and has
// already advanced c.seq.
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
// coordinator and back off). The worker name is not recorded; the
// argument stays because the benchmark harness passes one.
func (c *Coordinator) Lease(worker string) (LeaseResponse, bool) {
	l, _, ok := c.lease()
	return l, ok
}

// lease is Lease, also returning the campaign's leaseSpec for the
// handler to write the body from.
func (c *Coordinator) lease() (LeaseResponse, []byte, bool) {
	now := c.opt.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked(now)
	if c.draining {
		return LeaseResponse{}, nil, false
	}
	id, shard, ok := c.queue.pick()
	if !ok {
		return LeaseResponse{}, nil, false
	}
	fc := c.campaigns[id]
	fc.leased[shard] = now.Add(c.opt.LeaseTTL)
	return LeaseResponse{
		LeaseID:  leaseID(id, shard),
		Campaign: id,
		Spec:     fc.spec,
		Shard:    campaign.Shard{Index: shard, Size: fc.shardSize},
		Jobs:     len(fc.shardKeys[shard]),
		TTL:      c.opt.LeaseTTL,
	}, fc.leaseSpec, true
}

// Renew extends a lease, reporting whether the caller holds its shard.
// A shard that an expiry or a restart put back in the queue is taken
// off it and leased again: the holder re-adopts it. false — the shard
// is neither leased nor queued (it is done, or a cancel dropped it), or
// the id names no shard — tells the worker to stop renewing (it may
// keep computing: the completion is still accepted and deduped).
func (c *Coordinator) Renew(id string) bool {
	now := c.opt.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked(now)
	fc, shard, ok := c.leaseShard(id)
	if !ok {
		return false
	}
	if _, held := fc.leased[shard]; !held && !c.queue.take(fc.id, shard) {
		return false
	}
	fc.leased[shard] = now.Add(c.opt.LeaseTTL)
	return true
}

// errUnknownLease answers a lease id that names no shard of a known
// campaign.
var errUnknownLease = errors.New("unknown lease")

// settleLocked marks a shard done on its first completion and retires
// its lease and any queue entry, reporting whether it was the first.
// Shared by Complete and journal replay.
func (c *Coordinator) settleLocked(fc *fleetCampaign, shard, failed int) bool {
	delete(fc.leased, shard)
	if fc.done[shard] {
		return false
	}
	fc.done[shard] = true
	fc.doneCount++
	fc.failed += failed
	c.queue.take(fc.id, shard)
	if fc.finished() {
		c.queue.remove(fc.id)
	}
	return true
}

// Complete lands a shard's records, whatever became of its lease —
// active, expired, re-granted or granted before a restart: determinism
// makes the records equally valid, so they are persisted (deduped by
// the store), the shard is marked done with every job the store still
// lacks counted failed, and its lease or queue entry is retired. An id
// naming no shard of a known campaign returns an error; a store that
// refuses a record returns ErrStore with the shard back in the queue.
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
	fc, shard, ok := c.leaseShard(id)
	c.mu.Unlock()
	if !ok {
		return CompleteResponse{}, fmt.Errorf("fleet: complete %s: %w", id, errUnknownLease)
	}

	// Persist outside the coordinator lock: the store has its own
	// locking, and a slow disk must not stall lease traffic.
	var resp CompleteResponse
	var err error
	for _, r := range recs {
		if r.Err != "" {
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
	if err != nil {
		c.mu.Lock()
		defer c.mu.Unlock()
		// Re-queue a leased shard as an expiry would; the worker's retry
		// settles it.
		if _, held := fc.leased[shard]; held {
			c.expireLocked(fc, shard)
		}
		return resp, err
	}

	// The store, not the post, says how the shard went: every job whose
	// record it lacks failed, whether the worker posted a failure or
	// nothing at all. Replay reads the same store, so a restart agrees.
	found, missing := c.shardRecords(fc, shard)
	resp.Failed = missing
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.settleLocked(fc, shard, missing) {
		c.jobsCompleted.Add(int64(len(found)))
		c.jobsFailed.Add(int64(missing))
		// Failed jobs are the one outcome the store cannot show, so only
		// they are journaled, after the store append above; replay takes
		// every other shard's state from the store.
		if missing > 0 {
			c.logLocked(journalRecord{Op: opComplete, Campaign: fc.id, Shard: shard, Failed: missing})
		}
	}
	return resp, nil
}

// Cancel stops a campaign: its queued shards are dropped — never
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
	}
	return fc.statusLocked(), true
}

// cancelLocked is the cancel transition, shared by Cancel and journal
// replay.
func (c *Coordinator) cancelLocked(fc *fleetCampaign) {
	fc.cancelled = true
	c.queue.remove(fc.id)
}

// WaitCompactions does nothing: the store is never compacted. It stays
// only because the benchmark harness calls it.
func (c *Coordinator) WaitCompactions() {}

// sweepLocked expires every overdue lease.
func (c *Coordinator) sweepLocked(now time.Time) {
	for _, id := range c.overdueLocked(now) {
		fc, shard, _ := c.leaseShard(id)
		c.expireLocked(fc, shard)
	}
}

// overdueLocked lists the ids of the leases past their deadline, sorted.
// Sorting matters: map iteration order is random, so several leases
// expiring in one sweep would otherwise re-queue their shards in a
// different order on every run, and equal-share dispatch would diverge.
func (c *Coordinator) overdueLocked(now time.Time) []string {
	var ids []string
	for _, fc := range c.campaigns {
		for shard, deadline := range fc.leased {
			if now.After(deadline) {
				ids = append(ids, leaseID(fc.id, shard))
			}
		}
	}
	sort.Strings(ids)
	return ids
}

// expireLocked retires a shard's lease and re-queues the shard at the
// front, unless its campaign is cancelled: nothing re-runs those.
func (c *Coordinator) expireLocked(fc *fleetCampaign, shard int) {
	delete(fc.leased, shard)
	c.leasesExpired.Add(1)
	if !fc.cancelled {
		c.queue.push(fc.id, shard)
	}
}

// statusLocked reports the campaign's state.
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
// missing == 0 a plain campaign's slice is exactly what a single-process
// Engine.RunSpec would return (records marked Cached, as store hits
// are); a policy study's holds the same records, but each shard's
// profiling records and then its re-runs, shard after shard.
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

// Metrics reads the coordinator counters.
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
		LeasesActive:     c.leasesLocked(),
		Outstanding:      c.outstandingLocked(),
		Telemetry:        c.telem,
	}
	if j := c.journal; j != nil {
		m.JournalReplayed = c.journalReplayed
		m.JournalSyncs, m.JournalErrors, m.JournalSizeBytes = j.syncs, j.errors, j.log.Size()
	}
	c.mu.Unlock()
	m.LeasesExpired = c.leasesExpired.Load()
	m.SubmitsRejected = c.submitsRejected.Load()
	m.JobsCompleted = c.jobsCompleted.Load()
	m.JobsFailed = c.jobsFailed.Load()
	m.RecordsPersisted = c.recordsPersisted.Load()
	m.RecordsDuplicate = c.recordsDuplicate.Load()
	m.StoreLive = c.opt.Store.Len()
	m.StoreDead = c.opt.Store.Dead()
	return m
}
