package campaign

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tdmnoc/hsnoc"
	"tdmnoc/internal/obs"
	"tdmnoc/internal/stats"
)

// Runner executes one job. The default is Simulate; tests and the
// experiment drivers may substitute their own. The returned Summary is
// nil unless the job requested telemetry (Job.TelemetryEvery > 0).
type Runner func(ctx context.Context, job Job) (stats.RunRecord, *obs.Summary, error)

// Options configures an Engine.
type Options struct {
	// Workers bounds concurrent jobs (0 = NumCPU).
	Workers int
	// JobTimeout cancels an individual job after this long (0 = none).
	JobTimeout time.Duration
	// Runner executes jobs (nil = Simulate).
	Runner Runner
	// Store is the persistent result cache (nil = in-memory only; jobs
	// still dedup against each other within one Run).
	Store *Store
}

// Engine runs campaign jobs on a bounded worker pool. One Engine
// serves one campaign execution; its counters feed the /metrics
// endpoint of cmd/nocsimd.
type Engine struct {
	workers int
	timeout time.Duration
	runner  Runner
	store   *Store

	queued     atomic.Int64
	running    atomic.Int64
	done       atomic.Int64
	failed     atomic.Int64
	cacheHits  atomic.Int64
	cycles     atomic.Int64
	violations atomic.Int64

	// Telemetry aggregation across jobs run with WithTelemetry (cache
	// hits do not contribute — only freshly simulated jobs).
	telemJobs       atomic.Int64
	telemSteals     atomic.Int64
	telemSetupSum   atomic.Int64
	telemSetupCount atomic.Uint64
	telemDroppedWin atomic.Uint64
	telemBuckets    [len(obs.LatencyBuckets) + 1]atomic.Uint64
	// Per-worker-shard event-ring drop counters (index = shard). Jobs
	// have varying shard counts, so the slice grows under a mutex —
	// this runs once per completed job, never on a simulation hot path.
	telemMu        sync.Mutex
	telemRingDrops []uint64

	draining atomic.Bool
}

// Status is a snapshot of the engine counters.
type Status struct {
	Queued          int64 `json:"jobs_queued"`
	Running         int64 `json:"jobs_running"`
	Done            int64 `json:"jobs_done"`
	Failed          int64 `json:"jobs_failed"`
	CacheHits       int64 `json:"cache_hits"`
	CyclesSimulated int64 `json:"cycles_simulated"`
	Violations      int64 `json:"invariant_violations"`
}

// New builds an engine.
func New(o Options) *Engine {
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	if o.Runner == nil {
		o.Runner = Simulate
	}
	return &Engine{workers: o.Workers, timeout: o.JobTimeout, runner: o.Runner, store: o.Store}
}

// Status snapshots the counters.
func (e *Engine) Status() Status {
	return Status{
		Queued:          e.queued.Load(),
		Running:         e.running.Load(),
		Done:            e.done.Load(),
		Failed:          e.failed.Load(),
		CacheHits:       e.cacheHits.Load(),
		CyclesSimulated: e.cycles.Load(),
		Violations:      e.violations.Load(),
	}
}

// Telemetry is the engine-wide aggregate of per-job observability
// summaries, in Prometheus-friendly shape: Buckets[i] counts setup
// latencies <= BucketLE[i] cycles (non-cumulative; the last bucket is
// the overflow above BucketLE's final bound).
type Telemetry struct {
	Jobs       int64    `json:"jobs_with_telemetry"`
	SlotSteals int64    `json:"slot_steals"`
	SetupCount uint64   `json:"setup_count"`
	SetupSum   int64    `json:"setup_latency_sum_cycles"`
	BucketLE   []int64  `json:"bucket_le"`
	Buckets    []uint64 `json:"setup_latency_buckets"`
	// DroppedWindows sums the recorder windows evicted past MaxSamples
	// across jobs — nonzero means some timelines are truncated at the
	// head and long-run plots start late.
	DroppedWindows uint64 `json:"dropped_windows"`
	// RingDrops sums the per-shard event-ring evictions across jobs;
	// RingDropsByShard is the per-worker-shard breakdown (index =
	// shard). Nonzero means exported traces are missing their oldest
	// events — raise RingCapacity or RingSample if that matters.
	RingDrops        uint64   `json:"ring_drops"`
	RingDropsByShard []uint64 `json:"ring_drops_by_shard"`
}

// Telemetry snapshots the aggregated observability counters.
func (e *Engine) Telemetry() Telemetry {
	t := Telemetry{
		Jobs:           e.telemJobs.Load(),
		SlotSteals:     e.telemSteals.Load(),
		SetupCount:     e.telemSetupCount.Load(),
		SetupSum:       e.telemSetupSum.Load(),
		DroppedWindows: e.telemDroppedWin.Load(),
		BucketLE:       append([]int64(nil), obs.LatencyBuckets[:]...),
		Buckets:        make([]uint64, len(e.telemBuckets)),
	}
	for i := range e.telemBuckets {
		t.Buckets[i] = e.telemBuckets[i].Load()
	}
	e.telemMu.Lock()
	t.RingDropsByShard = append([]uint64(nil), e.telemRingDrops...)
	e.telemMu.Unlock()
	for _, d := range t.RingDropsByShard {
		t.RingDrops += d
	}
	return t
}

// Drain stops the engine from starting new jobs; in-flight jobs run to
// completion and persist. Used by graceful shutdown. Jobs skipped by a
// drain are reported failed with a "skipped" Err and retried when the
// campaign is re-submitted.
func (e *Engine) Drain() { e.draining.Store(true) }

// Sentinel error strings for records the engine did not execute.
const (
	errDrained   = "skipped: engine draining"
	errCancelled = "skipped: campaign cancelled"
)

// Run executes jobs and returns one record per job, in job order.
// Cached jobs (hits in the store, or duplicates of an earlier job in
// the same list) are served without simulating. Cancelling ctx aborts
// in-flight jobs and skips the rest; Drain lets in-flight jobs finish
// but skips the rest. Run never returns an error — per-job failures
// are carried in Record.Err so one pathological grid point cannot
// sink a thousand-job campaign.
func (e *Engine) Run(ctx context.Context, jobs []Job) []Record {
	recs := make([]Record, len(jobs))
	e.queued.Add(int64(len(jobs)))

	// Dedup within the job list: only the first occurrence of a key
	// simulates; duplicates copy its record afterwards.
	first := map[string]int{}
	dup := map[int]int{}
	var todo []int // indices of the jobs that must actually run
	for i, j := range jobs {
		if fi, ok := first[j.Key]; ok {
			dup[i] = fi
			continue
		}
		first[j.Key] = i
		if e.store != nil {
			if r, ok := e.store.Lookup(j.Key); ok {
				recs[i] = r
				e.queued.Add(-1)
				e.cacheHits.Add(1)
				e.done.Add(1)
				continue
			}
		}
		todo = append(todo, i)
	}
	// The pool: at most e.workers goroutines, each claiming the next
	// unclaimed index, so a million-job list costs a million slice
	// entries and not a million parked goroutines.
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(e.workers, len(todo)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := next.Add(1) - 1; k < int64(len(todo)); k = next.Add(1) - 1 {
				recs[todo[k]] = e.execute(ctx, jobs[todo[k]])
			}
		}()
	}
	wg.Wait()
	for i, fi := range dup {
		recs[i] = recs[fi]
		recs[i].Cached = true
		e.queued.Add(-1)
		if recs[fi].Err == "" {
			e.cacheHits.Add(1)
			e.done.Add(1)
		} else {
			e.failed.Add(1)
		}
	}
	return recs
}

// execute is one pool step: skip the job if the engine is cancelled or
// draining, otherwise run it, count it and persist a success.
func (e *Engine) execute(ctx context.Context, j Job) Record {
	e.queued.Add(-1)
	if ctx.Err() != nil || e.draining.Load() {
		rec := newRecord(j)
		rec.Err = errDrained
		if ctx.Err() != nil {
			rec.Err = errCancelled
		}
		e.failed.Add(1)
		return rec
	}
	e.running.Add(1)
	defer e.running.Add(-1)
	rec := e.runOne(ctx, j)
	if rec.Err != "" {
		e.failed.Add(1)
		return rec
	}
	e.done.Add(1)
	e.cycles.Add(int64(j.Warmup + j.Measure))
	if e.store != nil {
		if err := e.store.Append(rec); err != nil {
			// The result is still returned; only persistence
			// (and thus resume) is degraded.
			fmt.Fprintf(os.Stderr, "campaign: %v\n", err)
		}
	}
	return rec
}

// runOne executes a single job with timeout and panic containment.
func (e *Engine) runOne(ctx context.Context, j Job) (rec Record) {
	rec = newRecord(j)
	defer func() {
		if p := recover(); p != nil {
			rec.Err = fmt.Sprintf("panic: %v", p)
		}
	}()
	jctx := ctx
	if e.timeout > 0 {
		var cancel context.CancelFunc
		jctx, cancel = context.WithTimeout(ctx, e.timeout)
		defer cancel()
	}
	res, sum, err := e.runner(jctx, j)
	if err != nil {
		var ve *hsnoc.ViolationError
		if errors.As(err, &ve) {
			e.violations.Add(ve.Count)
		}
		rec.Err = err.Error()
		return rec
	}
	rec.Result = res
	if sum != nil {
		rec.Telemetry = sum
		e.telemJobs.Add(1)
		e.telemSteals.Add(sum.Steals)
		e.telemSetupSum.Add(sum.SetupLatency.Sum)
		e.telemSetupCount.Add(sum.SetupLatency.Total)
		e.telemDroppedWin.Add(sum.DroppedWindows)
		for i, c := range sum.SetupLatency.Counts {
			e.telemBuckets[i].Add(c)
		}
		e.telemMu.Lock()
		for i, d := range sum.ShardRingDrops {
			if i >= len(e.telemRingDrops) {
				e.telemRingDrops = append(e.telemRingDrops, make([]uint64, i+1-len(e.telemRingDrops))...)
			}
			e.telemRingDrops[i] += d
		}
		e.telemMu.Unlock()
	}
	return rec
}
