package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tdmnoc/internal/campaign"
	"tdmnoc/internal/obs"
	"tdmnoc/internal/stats"
)

// WorkerOptions configures a fleet worker.
type WorkerOptions struct {
	// Coordinator is the base URL of the coordinator, e.g.
	// "http://localhost:8080" (required by NewWorker).
	Coordinator string
	// Name identifies this worker in its own log lines and seeds its
	// jitter (default: "worker-<pid>").
	Name string
	// Workers bounds concurrent jobs across every shard the worker holds
	// (0 = NumCPU).
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
//
// A worker keeps Workers jobs running across shard boundaries: it
// leases the next shard as soon as a job slot is free and no leased job
// is waiting for one, so no slot idles while a shard's last jobs
// finish.
type Worker struct {
	opt      WorkerOptions
	coord    *Coordinator // in-process worker: protocol calls go straight to it
	client   *http.Client
	draining atomic.Bool

	rngMu sync.Mutex
	rng   *rand.Rand

	slots   chan struct{} // one token per running job, across all shards
	waiting atomic.Int64  // leased jobs that have not taken a slot yet
	shards  atomic.Int64  // leases held (running or completing)
	wake    chan struct{} // a slot or lease freed up, or Drain: re-check for room
	specs   specCache     // an HTTP worker's decoded specs

	// Counters for the worker-mode /metrics endpoint.
	ShardsDone   atomic.Int64
	ShardsFailed atomic.Int64
	JobsRun      atomic.Int64
	LeaseErrors  atomic.Int64
}

// maxBackoff caps a worker's exponential retry backoff.
const maxBackoff = 15 * time.Second

// errDrained abandons the lease of a shard whose unstarted jobs an
// in-process worker skipped on Drain; its finished jobs are already in
// the store, so the shard's next lease serves them from there.
var errDrained = errors.New("fleet: worker draining")

// NewWorker builds a worker that pulls from the coordinator at
// opt.Coordinator over HTTP.
func NewWorker(opt WorkerOptions) (*Worker, error) {
	if opt.Coordinator == "" {
		return nil, fmt.Errorf("fleet: worker needs a coordinator URL")
	}
	return newWorker(opt, nil), nil
}

// NewLocalWorker builds a worker in the coordinator's own process: it
// calls c's Lease, Renew and Complete directly, so records cross no
// HTTP and no JSON, and its engine persists each record into c's store
// as the job finishes, so a shutdown mid-shard keeps every finished job.
// opt.Coordinator and opt.Client are unused.
func NewLocalWorker(c *Coordinator, opt WorkerOptions) *Worker {
	return newWorker(opt, c)
}

func newWorker(opt WorkerOptions, coord *Coordinator) *Worker {
	if opt.Name == "" {
		opt.Name = fmt.Sprintf("worker-%d", os.Getpid())
	}
	if opt.Workers <= 0 {
		opt.Workers = runtime.NumCPU()
	}
	if opt.PollInterval <= 0 {
		opt.PollInterval = 500 * time.Millisecond
	}
	if opt.Runner == nil {
		opt.Runner = campaign.Simulate
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
	return &Worker{
		opt: opt, coord: coord, client: client, rng: rand.New(rand.NewSource(seed)),
		slots: make(chan struct{}, opt.Workers), wake: make(chan struct{}, 1),
	}
}

// Drain makes the worker lease no more shards and exit once the ones it
// holds are settled — the graceful half of worker shutdown. A remote
// worker finishes its shards, since their records land only with the
// completion; an in-process worker, whose records are already in the
// store, only finishes its running jobs. Cancelling the Run context is
// the abrupt half (the lease expires and the shard is re-issued
// elsewhere).
func (w *Worker) Drain() {
	w.draining.Store(true)
	w.signal()
}

// Draining reports whether Drain was called.
func (w *Worker) Draining() bool { return w.draining.Load() }

// signal wakes the Run loop if it is waiting for room.
func (w *Worker) signal() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// freed wakes the Run loop when a released slot, lease or waiting job
// made room; a release that leaves no room (a queued job takes the
// slot, or every lease is still held) wakes nothing.
func (w *Worker) freed() {
	if w.room() {
		w.signal()
	}
}

// room reports whether the worker should lease another shard: a slot is
// free, no leased job is waiting for one, and it holds fewer leases
// than it has slots (instant jobs must not pile up completions).
func (w *Worker) room() bool {
	n := int64(cap(w.slots))
	return w.waiting.Load() == 0 && int64(len(w.slots)) < n && w.shards.Load() < n
}

// jitter spreads d over [d/2, d) so retries desynchronise. The window
// clamps to >= 1ns: a caller configuring PollInterval <= 1ns leaves no
// room to jitter over, and Int63n panics on a non-positive bound.
func (w *Worker) jitter(d time.Duration) time.Duration {
	half := d / 2
	if half < 1 {
		half = 1
	}
	w.rngMu.Lock()
	defer w.rngMu.Unlock()
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
// called, then waits for the shards it holds. It returns nil on a clean
// exit; coordinator unreachability is retried forever (work-stealing
// fleets outlive coordinator restarts), never returned.
func (w *Worker) Run(ctx context.Context) error {
	var held sync.WaitGroup
	defer held.Wait()
	backoff := w.opt.PollInterval
	for {
		if ctx.Err() != nil || w.draining.Load() {
			return nil
		}
		if !w.room() {
			select {
			case <-ctx.Done():
			case <-w.wake:
			}
			continue
		}
		lease, spec, ok, err := w.lease(ctx)
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
		jobs, err := lease.Spec.ShardJobs(lease.Shard.Index, lease.Shard.Size)
		if err != nil {
			// Coordinator and worker disagree on the job grid — a version
			// skew, not a transient. Abandon the lease; it will expire.
			w.specs.release(spec)
			w.shardFailed(lease, fmt.Errorf("derive jobs: %w", err))
			continue
		}
		// Counted before the shard starts, so the next room check sees
		// its jobs waiting.
		w.waiting.Add(int64(len(jobs)))
		w.shards.Add(1)
		held.Add(1)
		go func() {
			defer held.Done()
			err := w.runShard(ctx, lease, jobs)
			w.specs.release(spec)
			w.shards.Add(-1)
			w.freed()
			switch {
			case err == nil:
				w.ShardsDone.Add(1)
			case !errors.Is(err, errDrained):
				w.shardFailed(lease, err)
			}
		}()
	}
}

func (w *Worker) shardFailed(lease LeaseResponse, err error) {
	w.ShardsFailed.Add(1)
	fmt.Fprintf(os.Stderr, "fleet: %s: shard %d of %s: %v\n", w.opt.Name, lease.Shard.Index, lease.Campaign, err)
}

// runShard executes one leased shard end to end: simulate with
// background renewal — a policy study's shard runs both its waves here,
// in the one lease — and post the records back. Its jobs share the
// worker's slots with every other shard it holds.
func (w *Worker) runShard(ctx context.Context, lease LeaseResponse, jobs []campaign.Job) error {
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

	// left is how many of this shard's jobs w.waiting still counts: each
	// job that takes a slot retires one, and whatever never ran (store
	// hits, duplicates, skips) is retired when the shard ends.
	left := int64(len(jobs))
	var skipped atomic.Bool
	slotted := func(jctx context.Context, j campaign.Job) (stats.RunRecord, *obs.Summary, error) {
		select {
		case w.slots <- struct{}{}:
		case <-jctx.Done():
			return stats.RunRecord{}, nil, jctx.Err()
		}
		defer func() {
			<-w.slots
			w.freed()
		}()
		if atomic.AddInt64(&left, -1) >= 0 && w.waiting.Add(-1) == 0 {
			w.freed()
		}
		if w.coord != nil && w.draining.Load() {
			skipped.Store(true)
			return stats.RunRecord{}, nil, errDrained
		}
		if w.opt.JobTimeout > 0 {
			var cancel context.CancelFunc
			jctx, cancel = context.WithTimeout(jctx, w.opt.JobTimeout)
			defer cancel()
		}
		return w.opt.Runner(jctx, j)
	}
	eopt := campaign.Options{Workers: w.opt.Workers, Runner: slotted}
	if w.coord != nil {
		eopt.Store = localStore{w.coord} // each record lands as its job finishes
	}
	recs := campaign.New(eopt).RunSpec(ctx, lease.Spec, jobs)
	if n := atomic.SwapInt64(&left, 0); n > 0 {
		w.waiting.Add(-n)
		w.freed()
	}
	stopRenew()
	if ctx.Err() != nil {
		// Abrupt shutdown: don't post skipped-job records as failures;
		// the lease expires and the shard re-runs elsewhere.
		return ctx.Err()
	}
	if skipped.Load() {
		return errDrained
	}
	w.JobsRun.Add(int64(len(recs)))
	return w.complete(ctx, lease.LeaseID, recs)
}

// lease asks the coordinator for a shard. ok is false on 204 (no
// work); err covers transport failures, unexpected statuses and bodies
// that do not decode. An HTTP lease's spec comes from the spec cache,
// held there until the caller releases spec (nil in-process).
func (w *Worker) lease(ctx context.Context) (l LeaseResponse, spec *cachedSpec, ok bool, err error) {
	if w.coord != nil {
		l, ok := w.coord.Lease("")
		return l, nil, ok, nil
	}
	status, body, err := w.post(ctx, "/fleet/lease", nil)
	switch {
	case err != nil:
		return l, nil, false, err
	case status == http.StatusNoContent:
		return l, nil, false, nil
	case status != http.StatusOK:
		return l, nil, false, fmt.Errorf("lease: unexpected status %d", status)
	}
	l, raw, err := decodeLease(body)
	if err == nil && raw != nil {
		if spec, err = w.specs.acquire(raw); err == nil {
			l.Spec = spec.spec
		}
	}
	if err != nil {
		return l, nil, false, fmt.Errorf("decode /fleet/lease response: %w", err)
	}
	return l, spec, true, nil
}

// renew extends the lease; it reports true when the lease is gone for
// good (410) so the renewal loop can stop.
func (w *Worker) renew(ctx context.Context, id string) (gone bool) {
	if w.coord != nil {
		return !w.coord.Renew(id)
	}
	status, _, err := w.post(ctx, "/fleet/leases/"+id+"/renew", nil)
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
	var body []byte
	if w.coord == nil {
		var err error
		if body, err = appendComplete(nil, recs); err != nil {
			return fmt.Errorf("encode complete: %w", err)
		}
	}
	backoff := w.opt.PollInterval
	var lastErr error
	for attempt := 0; attempt < 6; attempt++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		status, err := w.completeOnce(ctx, id, recs, body)
		switch {
		case err != nil:
			lastErr = err
		case status == http.StatusOK:
			return nil
		case status == http.StatusNotFound:
			// The lease names no shard of a campaign the coordinator
			// knows: it restarted without a journal. The shard will be
			// re-run from a fresh lease if it still matters. Nothing to
			// retry.
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

// completeOnce makes one completion attempt and reports the answer as
// an HTTP status: a POST of body, or for an in-process worker a direct
// call whose error maps to the status the handler would send (a store
// fault comes back as the error itself, for the retry loop to report).
func (w *Worker) completeOnce(ctx context.Context, id string, recs []campaign.Record, body []byte) (int, error) {
	if w.coord == nil {
		status, _, err := w.post(ctx, "/fleet/leases/"+id+"/complete", body)
		return status, err
	}
	_, err := w.coord.complete(id, recs, true)
	if code := completeStatus(err); code != http.StatusServiceUnavailable {
		return code, nil
	}
	return 0, err
}

// post sends a JSON POST and returns the status and, for a 200, the
// response body.
func (w *Worker) post(ctx context.Context, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.opt.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil, nil
	}
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("read %s response: %w", path, err)
	}
	return resp.StatusCode, out, nil
}
