// Package fleet is the campaign service: a coordinator that expands
// campaign specs into job shards and serves them to workers over a
// work-stealing pull protocol, backed by a content-addressed sharded
// result store. The workers are remote nocsimd processes pulling over
// HTTP, or one worker in the coordinator's own process calling it
// directly (NewLocalWorker) — standalone nocsimd is exactly that.
//
// The design leans entirely on two properties the campaign layer
// already guarantees:
//
//   - The job list of a spec is a pure function of the normalized
//     spec, expanded in a fixed order. A lease therefore names a shard
//     as (spec, index, size) and every worker re-derives exactly the
//     same jobs — no job payloads cross the wire.
//   - Records are pure functions of their jobs, keyed by the canonical
//     config hash. Any worker's record for a key equals any other's,
//     so results merge idempotently: duplicate completions (a shard
//     re-leased after a worker death, then both finishing) collapse in
//     the content-addressed store instead of corrupting aggregates.
//
// Together these make the fabric deterministic end to end: the merged
// aggregates of a spec run across any fleet — including one that lost
// workers mid-run — are byte-identical to a single-process
// campaign.Engine run of the same spec.
//
// Failure handling is lease-based, and a lease is soft state: a
// deadline on a shard, named after the campaign and the shard. A worker
// pulls a shard, renews its lease while simulating, and completes it
// with the records. A worker that dies simply stops renewing; the
// coordinator re-queues the shard at the next expiry sweep and another
// worker picks it up. A restarted coordinator re-queues every shard
// that was leased, and a holder's next renew takes its shard back.
// Completions land whatever became of the lease (the records are
// correct by determinism): the store dedups, the shard is marked done,
// and its lease or queue entry is dropped. So the journal records only
// campaigns — submits, cancels, and the failed jobs of a shard, the one
// outcome the store cannot show — and a shard is done when the store
// holds its records.
//
// Admission is bounded by one cap on the jobs outstanding across all
// campaigns, read off the queue and the leases (submits past it
// get 429 + Retry-After so clients back off instead of the coordinator
// OOMing), and shard dispatch gives every campaign an equal share via
// stride scheduling, so a million-job sweep shares the fleet with an
// interactive ten-job probe instead of starving it.
package fleet

import (
	"time"

	"tdmnoc/internal/campaign"
	"tdmnoc/internal/obs"
)

// Wire protocol. All endpoints speak JSON over the coordinator's HTTP
// surface under /fleet/.

// SubmitRequest posts a campaign to the coordinator.
type SubmitRequest struct {
	// Tenant is accepted and ignored, so clients that still name one
	// keep working.
	Tenant string `json:"tenant,omitempty"`
	// Spec is the campaign grid, exactly as for single-process runs.
	Spec campaign.Spec `json:"spec"`
}

// SubmitResponse acknowledges an admitted campaign.
type SubmitResponse struct {
	ID       string `json:"id"`
	SpecHash string `json:"spec_hash"`
	Jobs     int    `json:"jobs"`
	Shards   int    `json:"shards"`
	// CachedShards counts shards completed at admission because every
	// job key was already in the store (the distributed resume path).
	CachedShards int    `json:"cached_shards"`
	StatusURL    string `json:"status_url"`
}

// LeaseResponse grants one shard. The worker re-derives the jobs from
// (Spec, Shard) and must renew before Deadline or the shard is
// re-queued.
type LeaseResponse struct {
	LeaseID  string         `json:"lease_id"`
	Campaign string         `json:"campaign"`
	Spec     campaign.Spec  `json:"spec"`
	Shard    campaign.Shard `json:"shard"`
	Jobs     int            `json:"jobs"`
	// TTL is the renewal interval: the lease expires TTL after grant
	// or last renewal.
	TTL time.Duration `json:"ttl_ns"`
}

// CompleteRequest returns a finished shard's records. Records with Err
// set ride along for accounting but are never persisted.
type CompleteRequest struct {
	Records []campaign.Record `json:"records"`
}

// CompleteResponse reports what the store did with the records.
type CompleteResponse struct {
	Persisted  int `json:"persisted"`
	Duplicates int `json:"duplicates"`
	Failed     int `json:"failed"`
}

// CampaignStatus is the coordinator's view of one campaign.
type CampaignStatus struct {
	ID           string        `json:"id"`
	SpecHash     string        `json:"spec_hash"`
	State        string        `json:"state"` // running | done | cancelled
	Jobs         int           `json:"jobs"`
	Shards       int           `json:"shards"`
	ShardsDone   int           `json:"shards_done"`
	ShardsLeased int           `json:"shards_leased"`
	JobsFailed   int           `json:"jobs_failed"`
	Spec         campaign.Spec `json:"spec"`
}

// Metrics holds the coordinator counters backing the Prometheus
// endpoint.
type Metrics struct {
	CampaignsTotal   int   `json:"campaigns_total"`
	CampaignsRunning int   `json:"campaigns_running"`
	QueueDepth       int   `json:"queue_depth"` // shards awaiting lease
	LeasesActive     int   `json:"leases_active"`
	LeasesExpired    int64 `json:"leases_expired_total"`
	SubmitsRejected  int64 `json:"submits_rejected_total"`
	JobsCompleted    int64 `json:"jobs_completed_total"`
	JobsFailed       int64 `json:"jobs_failed_total"`
	RecordsPersisted int64 `json:"records_persisted_total"`
	RecordsDuplicate int64 `json:"records_duplicate_total"`
	ShardsCompacted  int64 `json:"shards_compacted_total"`
	StoreLive        int   `json:"store_live_records"`
	StoreDead        int   `json:"store_dead_lines"`
	// Outstanding is the jobs of queued shards plus those of active
	// leases: the count Options.MaxOutstanding caps.
	Outstanding int `json:"outstanding_jobs"`

	// Journal counters; all zero when running without one. Every
	// append syncs, so JournalSyncs is also the record count.
	JournalSyncs     int64 `json:"journal_syncs_total"`
	JournalErrors    int64 `json:"journal_errors_total"`
	JournalSizeBytes int64 `json:"journal_size_bytes"`
	// JournalReplayed is the record count recovered at startup.
	JournalReplayed int64 `json:"journal_replayed_records"`

	Telemetry Telemetry `json:"telemetry"`
}

// Telemetry sums the obs.Summary of every record the store newly
// persisted — jobs run with telemetry_every, and policy studies'
// profiling runs — whichever worker ran them. Duplicates and store hits
// add nothing, so each simulation counts once.
type Telemetry struct {
	Jobs       int64 `json:"jobs"`
	SlotSteals int64 `json:"slot_steals"`
	// DroppedWindows counts time-series windows evicted past the
	// recorder's bound: nonzero means some timelines start late.
	DroppedWindows uint64 `json:"dropped_windows"`
	// RingDrops counts events lost to full event rings: nonzero means
	// sampled traces have gaps.
	RingDrops    uint64        `json:"ring_drops"`
	SetupLatency obs.Histogram `json:"setup_latency"`
}

func (t *Telemetry) add(s *obs.Summary) {
	t.Jobs++
	t.SlotSteals += s.Steals
	t.DroppedWindows += s.DroppedWindows
	t.RingDrops += s.RingDrops
	t.SetupLatency.Merge(&s.SetupLatency)
}
