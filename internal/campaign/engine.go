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
	Store ResultStore
}

// ResultStore is what an engine serves cached records from and
// persists each finished job to: a *Store, or the fleet coordinator's
// sharded store behind its in-process worker.
type ResultStore interface {
	Lookup(key string) (Record, bool)
	Append(Record) error
}

// Engine runs campaign jobs on a bounded worker pool. One Engine
// serves one campaign execution — an experiments run, or one fleet
// shard on a worker — and counts what it did in Status.
type Engine struct {
	workers int
	timeout time.Duration
	runner  Runner
	store   ResultStore

	queued     atomic.Int64
	running    atomic.Int64
	done       atomic.Int64
	failed     atomic.Int64
	cacheHits  atomic.Int64
	cycles     atomic.Int64
	violations atomic.Int64
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

// errCancelled is the Err of a record whose job the engine skipped
// because ctx was cancelled first.
const errCancelled = "skipped: campaign cancelled"

// Run executes jobs and returns one record per job, in job order.
// Cached jobs (hits in the store, or duplicates of an earlier job in
// the same list) are served without simulating, each under its own
// job's label, not the one it was stored under. Cancelling ctx aborts
// in-flight jobs and skips the rest. Run never returns an error —
// per-job failures are carried in Record.Err so one pathological grid
// point cannot sink a thousand-job campaign.
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
				recs[i].Label = j.Label
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
		recs[i].Label, recs[i].Cached = jobs[i].Label, true
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

// execute is one pool step: skip the job if ctx is cancelled, otherwise
// run it, count it and persist a success.
func (e *Engine) execute(ctx context.Context, j Job) Record {
	e.queued.Add(-1)
	if ctx.Err() != nil {
		rec := newRecord(j)
		rec.Err = errCancelled
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
	rec.Telemetry = sum
	return rec
}
