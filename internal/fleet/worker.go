package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"tdmnoc/internal/campaign"
)

// WorkerOptions configures a fleet worker.
type WorkerOptions struct {
	// Coordinator is the base URL of the coordinator, e.g.
	// "http://localhost:8080" (required).
	Coordinator string
	// Name identifies this worker in coordinator logs and lease
	// listings (default: "worker-<pid>").
	Name string
	// Workers bounds concurrent jobs within a shard (0 = NumCPU).
	Workers int
	// JobTimeout caps one simulation (0 = none).
	JobTimeout time.Duration
	// PollInterval is the idle backoff base when the coordinator has no
	// work (0 = 500ms); errors back off exponentially from here up to
	// maxBackoff. Both are jittered so a fleet restarted together does
	// not poll in lockstep.
	PollInterval time.Duration
	// Client is the HTTP client (nil = a 30s-timeout client).
	Client *http.Client
	// Runner substitutes the job runner (nil = campaign.Simulate);
	// tests use it to make shards slow or instant.
	Runner campaign.Runner
	// Seed seeds the jitter source (0 = from the worker name) so tests
	// can pin backoff sequences.
	Seed int64
}

// Worker is the pull side of the fabric: it leases shards from the
// coordinator, re-derives their jobs from the spec, simulates them on
// a local campaign engine, and posts the records back, renewing the
// lease while it works. All failure handling is retry-with-jitter
// against an idempotent protocol — the worker never needs to know
// whether a previous attempt half-landed.
type Worker struct {
	opt      WorkerOptions
	client   *http.Client
	rng      *rand.Rand
	draining atomic.Bool

	// Counters for the worker-mode /metrics endpoint.
	ShardsDone   atomic.Int64
	ShardsFailed atomic.Int64
	JobsRun      atomic.Int64
	LeaseErrors  atomic.Int64
}

// maxBackoff caps a worker's exponential retry backoff.
const maxBackoff = 15 * time.Second

// NewWorker builds a worker.
func NewWorker(opt WorkerOptions) (*Worker, error) {
	if opt.Coordinator == "" {
		return nil, fmt.Errorf("fleet: worker needs a coordinator URL")
	}
	if opt.Name == "" {
		opt.Name = fmt.Sprintf("worker-%d", os.Getpid())
	}
	if opt.PollInterval <= 0 {
		opt.PollInterval = 500 * time.Millisecond
	}
	client := opt.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	seed := opt.Seed
	if seed == 0 {
		for _, b := range []byte(opt.Name) {
			seed = seed*131 + int64(b)
		}
	}
	return &Worker{opt: opt, client: client, rng: rand.New(rand.NewSource(seed))}, nil
}

// Drain makes the worker exit after its current shard completes
// instead of leasing another — the graceful half of worker shutdown.
// Cancelling the Run context is the abrupt half (the lease expires and
// the shard is re-issued elsewhere).
func (w *Worker) Drain() { w.draining.Store(true) }

// Draining reports whether Drain was called.
func (w *Worker) Draining() bool { return w.draining.Load() }

// jitter spreads d over [d/2, d) so retries desynchronise. rand.Rand
// is not goroutine-safe, but jitter is only called from the Run loop.
// The window clamps to >= 1ns: a caller configuring PollInterval <= 1ns
// leaves no room to jitter over, and Int63n panics on a non-positive
// bound.
func (w *Worker) jitter(d time.Duration) time.Duration {
	half := d / 2
	if half < 1 {
		half = 1
	}
	return half + time.Duration(w.rng.Int63n(int64(half)))
}

// sleep waits the jittered duration or until ctx cancels.
func (w *Worker) sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(w.jitter(d))
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// Run pulls and executes shards until ctx is cancelled or Drain is
// called. It returns nil on a clean exit; coordinator unreachability
// is retried forever (work-stealing fleets outlive coordinator
// restarts), never returned.
func (w *Worker) Run(ctx context.Context) error {
	backoff := w.opt.PollInterval
	for {
		if ctx.Err() != nil || w.draining.Load() {
			return nil
		}
		lease, ok, err := w.lease(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			w.LeaseErrors.Add(1)
			w.sleep(ctx, backoff)
			if backoff *= 2; backoff > maxBackoff {
				backoff = maxBackoff
			}
			continue
		}
		backoff = w.opt.PollInterval
		if !ok {
			// No work right now; idle-poll. The coordinator answers 204
			// both when queues are empty and when it drains, so workers
			// need no special shutdown signal.
			w.sleep(ctx, w.opt.PollInterval)
			continue
		}
		if err := w.runShard(ctx, lease); err != nil {
			w.ShardsFailed.Add(1)
			fmt.Fprintf(os.Stderr, "fleet: %s: shard %d of %s: %v\n", w.opt.Name, lease.Shard.Index, lease.Campaign, err)
			continue
		}
		w.ShardsDone.Add(1)
	}
}

// runShard executes one leased shard end to end: derive jobs, simulate
// with background renewal — a policy study's shard runs both its waves
// here, in the one lease — and post the records back.
func (w *Worker) runShard(ctx context.Context, lease LeaseResponse) error {
	jobs, err := lease.Spec.ShardJobs(lease.Shard.Index, lease.Shard.Size)
	if err != nil {
		// Coordinator and worker disagree on the job grid — a version
		// skew, not a transient. Abandon the lease; it will expire.
		return fmt.Errorf("derive jobs: %w", err)
	}

	// Renew at TTL/3 until the shard finishes. A renewal returning
	// "gone" means the coordinator already re-queued the shard (e.g. a
	// long GC pause); the records remain valid, so finish and complete
	// anyway — the store dedups whatever the other worker also lands.
	renewCtx, stopRenew := context.WithCancel(ctx)
	defer stopRenew()
	interval := lease.TTL / 3
	if interval <= 0 {
		interval = time.Second
	}
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-renewCtx.Done():
				return
			case <-t.C:
				if gone := w.renew(renewCtx, lease.LeaseID); gone {
					return
				}
			}
		}
	}()

	eng := campaign.New(campaign.Options{
		Workers:    w.opt.Workers,
		JobTimeout: w.opt.JobTimeout,
		Runner:     w.opt.Runner,
	})
	recs := eng.RunSpec(ctx, lease.Spec, jobs)
	stopRenew()
	if ctx.Err() != nil {
		// Abrupt shutdown: don't post skipped-job records as failures;
		// the lease expires and the shard re-runs elsewhere.
		return ctx.Err()
	}
	w.JobsRun.Add(int64(len(recs)))
	return w.complete(ctx, lease.LeaseID, recs)
}

// lease asks the coordinator for a shard. ok is false on 204 (no
// work); err covers transport failures and unexpected statuses.
func (w *Worker) lease(ctx context.Context) (LeaseResponse, bool, error) {
	var resp LeaseResponse
	body, _ := json.Marshal(LeaseRequest{Worker: w.opt.Name})
	status, err := w.post(ctx, "/fleet/lease", body, &resp)
	if err != nil {
		return resp, false, err
	}
	switch status {
	case http.StatusOK:
		return resp, true, nil
	case http.StatusNoContent:
		return resp, false, nil
	default:
		return resp, false, fmt.Errorf("lease: unexpected status %d", status)
	}
}

// renew extends the lease; it reports true when the lease is gone for
// good (410) so the renewal loop can stop.
func (w *Worker) renew(ctx context.Context, id string) (gone bool) {
	status, err := w.post(ctx, "/fleet/leases/"+id+"/renew", nil, nil)
	if err != nil {
		// Transient; the next tick retries well within the TTL.
		return false
	}
	return status == http.StatusGone
}

// complete posts the shard's records, retrying with jittered
// exponential backoff. Completion is idempotent on the coordinator
// side, so retrying after an ambiguous failure (timeout after the
// server processed the request) is safe.
func (w *Worker) complete(ctx context.Context, id string, recs []campaign.Record) error {
	body, err := json.Marshal(CompleteRequest{Worker: w.opt.Name, Records: recs})
	if err != nil {
		return fmt.Errorf("encode complete: %w", err)
	}
	backoff := w.opt.PollInterval
	var lastErr error
	for attempt := 0; attempt < 6; attempt++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var resp CompleteResponse
		status, err := w.post(ctx, "/fleet/leases/"+id+"/complete", body, &resp)
		switch {
		case err != nil:
			lastErr = err
		case status == http.StatusOK:
			return nil
		case status == http.StatusNotFound:
			// Coordinator restarted without a journal (or the journal
			// rotated the tombstone of a finished campaign away); the
			// shard will be re-run from a fresh lease if it still
			// matters. Nothing to retry.
			return fmt.Errorf("complete: lease %s unknown to coordinator", id)
		default:
			lastErr = fmt.Errorf("complete: unexpected status %d", status)
		}
		w.sleep(ctx, backoff)
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
	return fmt.Errorf("complete: giving up after retries: %w", lastErr)
}

// post sends a JSON POST and decodes the response body into out (when
// non-nil and the status carries a body).
func (w *Worker) post(ctx context.Context, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.opt.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("decode %s response: %w", path, err)
		}
		return resp.StatusCode, nil
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}
