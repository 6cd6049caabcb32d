package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tdmnoc/internal/campaign"
	"tdmnoc/internal/fleet"
	"tdmnoc/internal/obs"
)

// server owns the campaign registry. Each submitted campaign gets its
// own engine and runs in a background goroutine; results persist to a
// per-spec JSONL store in dataDir, so re-submitting a spec — after a
// completed run, a cancel, or a crash — resumes from whatever finished.
//
// With -coordinator the server additionally mounts the fleet control
// plane (see internal/fleet) under /fleet/; with -worker it runs a
// fleet worker loop alongside. Either way /metrics carries the extra
// counters.
type server struct {
	dataDir    string
	workers    int
	jobTimeout time.Duration

	// draining flips when shutdown starts: new submits are refused with
	// 503 + Retry-After so load balancers and retrying clients move on
	// immediately instead of racing the drain window.
	draining atomic.Bool

	coord   *fleet.Coordinator // non-nil in -coordinator mode
	fworker *fleet.Worker      // non-nil in -worker mode

	mu        sync.Mutex
	campaigns map[string]*run
	seq       int
}

// run is one campaign execution. The immutable identity fields are set
// at submit time; State and records are written by the background
// goroutine under mu.
type run struct {
	ID        string
	Name      string
	SpecHash  string
	Jobs      int
	Submitted time.Time
	Spec      campaign.Spec

	engine *campaign.Engine
	store  *campaign.Store
	cancel context.CancelFunc
	doneCh chan struct{}

	mu      sync.Mutex
	State   string // running | done | cancelled | failed
	Err     string
	records []campaign.Record
	// policy is the profile→re-run comparison report of a policy_profile
	// campaign (nil otherwise, and until the loop finishes).
	policy *campaign.PolicyReport
}

// statusView is the JSON shape of GET /campaigns and /campaigns/{id}:
// an immutable snapshot of a run, safe to marshal without holding any
// lock.
type statusView struct {
	ID        string          `json:"id"`
	Name      string          `json:"name,omitempty"`
	SpecHash  string          `json:"spec_hash"`
	Jobs      int             `json:"jobs"`
	State     string          `json:"state"`
	Error     string          `json:"error,omitempty"`
	Submitted time.Time       `json:"submitted"`
	Spec      campaign.Spec   `json:"spec"`
	Counters  campaign.Status `json:"counters"`
}

// view snapshots the run's mutable state under its lock.
func (c *run) view() statusView {
	c.mu.Lock()
	state, errMsg := c.State, c.Err
	c.mu.Unlock()
	return statusView{
		ID: c.ID, Name: c.Name, SpecHash: c.SpecHash, Jobs: c.Jobs,
		State: state, Error: errMsg, Submitted: c.Submitted, Spec: c.Spec,
		Counters: c.engine.Status(),
	}
}

func newServer(dataDir string, workers int, jobTimeout time.Duration) *server {
	return &server{dataDir: dataDir, workers: workers, jobTimeout: jobTimeout, campaigns: map[string]*run{}}
}

func (s *server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /campaigns", s.handleSubmit)
	mux.HandleFunc("GET /campaigns", s.handleList)
	mux.HandleFunc("GET /campaigns/{id}", s.handleStatus)
	mux.HandleFunc("GET /campaigns/{id}/results", s.handleResults)
	mux.HandleFunc("GET /campaigns/{id}/summary", s.handleSummary)
	mux.HandleFunc("GET /campaigns/{id}/timeline", s.handleTimeline)
	mux.HandleFunc("GET /campaigns/{id}/policy", s.handlePolicy)
	mux.HandleFunc("POST /campaigns/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /buildinfo", s.handleBuildInfo)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	if s.coord != nil {
		s.coord.Register(mux)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// maxSpecBody caps a posted campaign spec.
const maxSpecBody = 8 << 20

// handleSubmit expands the posted spec and launches it. The response
// returns immediately with the campaign id; progress is polled via
// GET /campaigns/{id}.
func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		// Refuse with the standard backoff hint: the process is on its
		// way out and a campaign accepted now would be killed mid-run.
		w.Header().Set("Retry-After", "30")
		writeError(w, http.StatusServiceUnavailable, "nocsimd is draining; retry against another instance")
		return
	}
	spec, err := campaign.ParseSpec(http.MaxBytesReader(w, r.Body, maxSpecBody))
	if err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, "%v", err)
		return
	}
	jobs, err := spec.Expand()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	hash := spec.Hash()
	store, err := campaign.OpenStore(filepath.Join(s.dataDir, "spec-"+hash[:16]+".jsonl"))
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}

	ctx, cancel := context.WithCancel(context.Background())
	eng := campaign.New(campaign.Options{Workers: s.workers, JobTimeout: s.jobTimeout, Store: store})
	s.mu.Lock()
	s.seq++
	id := fmt.Sprintf("c%04d-%s", s.seq, hash[:12])
	c := &run{
		ID: id, Name: spec.Name, SpecHash: hash, Jobs: len(jobs),
		State: "running", Submitted: time.Now().UTC(), Spec: spec,
		engine: eng, store: store, cancel: cancel, doneCh: make(chan struct{}),
	}
	s.campaigns[id] = c
	s.mu.Unlock()

	go func() {
		defer close(c.doneCh)
		defer store.Close()
		if spec.PolicyProfile != nil {
			s.runPolicyCampaign(ctx, cancel, c, eng, spec)
			return
		}
		recs := eng.Run(ctx, jobs)
		cancel()
		c.mu.Lock()
		c.records = recs
		if ctx.Err() != nil && anyCancelled(recs) {
			c.State = "cancelled"
		} else {
			c.State = "done"
		}
		c.mu.Unlock()
	}()

	writeJSON(w, http.StatusAccepted, map[string]any{
		"id": id, "jobs": len(jobs), "spec_hash": hash,
		"status_url":  "/campaigns/" + id,
		"results_url": "/campaigns/" + id + "/results",
	})
}

// runPolicyCampaign executes a policy_profile spec through the
// profile→re-run loop. Extracted profiles persist next to the result
// store, so a re-submitted comparison skips its phase-A simulations.
func (s *server) runPolicyCampaign(ctx context.Context, cancel context.CancelFunc, c *run, eng *campaign.Engine, spec campaign.Spec) {
	profs, err := campaign.OpenProfileStore(filepath.Join(s.dataDir, "spec-"+c.SpecHash[:16]+"-profiles.jsonl"))
	if err != nil {
		cancel()
		c.mu.Lock()
		c.State, c.Err = "failed", err.Error()
		c.mu.Unlock()
		return
	}
	defer profs.Close()
	rep, err := campaign.RunPolicyLoop(ctx, eng, spec, profs)
	cancel()
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case err != nil && ctx.Err() != nil:
		c.State = "cancelled"
	case err != nil:
		c.State, c.Err = "failed", err.Error()
	default:
		c.policy = rep
		c.State = "done"
	}
}

// anyCancelled reports whether any record was skipped or aborted —
// distinguishing a cancel that landed mid-run from one that arrived
// after the last job finished.
func anyCancelled(recs []campaign.Record) bool {
	for _, r := range recs {
		if r.Err != "" {
			return true
		}
	}
	return false
}

func (s *server) get(id string) (*run, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.campaigns[id]
	return c, ok
}

func (s *server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	runs := make([]*run, 0, len(s.campaigns))
	for _, c := range s.campaigns {
		runs = append(runs, c)
	}
	s.mu.Unlock()
	views := make([]statusView, 0, len(runs))
	for _, c := range runs {
		views = append(views, c.view())
	}
	sort.Slice(views, func(i, j int) bool { return views[i].ID < views[j].ID })
	writeJSON(w, http.StatusOK, views)
}

func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	c, ok := s.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, c.view())
}

// handleResults streams the campaign's records — as a JSON array by
// default, or as raw JSONL with ?format=jsonl. Partial results are
// served while the campaign is still running (whatever the store holds
// so far).
func (s *server) handleResults(w http.ResponseWriter, r *http.Request) {
	c, ok := s.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	c.mu.Lock()
	recs := make([]campaign.Record, len(c.records))
	copy(recs, c.records)
	c.mu.Unlock()
	if len(recs) == 0 {
		// Still running: serve whatever the store has persisted so far
		// (unordered partial results).
		recs = c.store.Records()
		sort.Slice(recs, func(i, j int) bool { return recs[i].Label < recs[j].Label })
	}
	if r.URL.Query().Get("format") == "jsonl" {
		w.Header().Set("Content-Type", "application/jsonl")
		enc := json.NewEncoder(w)
		for _, rec := range recs {
			enc.Encode(rec)
		}
		return
	}
	writeJSON(w, http.StatusOK, recs)
}

// handleSummary aggregates the campaign's finished records across
// seeds (the mergeable-record path): one merged RunRecord per
// (mode, pattern, mesh, slots, rate) group, with derived averages.
func (s *server) handleSummary(w http.ResponseWriter, r *http.Request) {
	c, ok := s.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	c.mu.Lock()
	recs := make([]campaign.Record, len(c.records))
	copy(recs, c.records)
	c.mu.Unlock()
	agg := campaign.Aggregate(recs, campaign.GroupWithoutSeed)
	type row struct {
		Group             string  `json:"group"`
		Seeds             int64   `json:"seeds"`
		AvgNetLatency     float64 `json:"avg_net_latency"`
		AvgTotalLatency   float64 `json:"avg_total_latency"`
		Throughput        float64 `json:"throughput"`
		PayloadThroughput float64 `json:"payload_throughput"`
		CSFlitFraction    float64 `json:"cs_flit_fraction"`
		EnergyPJ          float64 `json:"energy_pj"`
	}
	rows := make([]row, 0, len(agg))
	for g, rec := range agg {
		rows = append(rows, row{
			Group: g, Seeds: rec.Runs,
			AvgNetLatency: rec.AvgNetLatency(), AvgTotalLatency: rec.AvgTotalLatency(),
			Throughput: rec.Throughput(), PayloadThroughput: rec.PayloadThroughput(),
			CSFlitFraction: rec.CSFlitFraction(), EnergyPJ: rec.EnergyPJ,
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Group < rows[j].Group })
	writeJSON(w, http.StatusOK, rows)
}

// handleTimeline serves the per-job observability summaries of a
// telemetry campaign (specs with telemetry_every set): one row per
// record that carries a Summary. Campaigns run without telemetry
// return an empty array.
func (s *server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	c, ok := s.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	c.mu.Lock()
	recs := make([]campaign.Record, len(c.records))
	copy(recs, c.records)
	c.mu.Unlock()
	if len(recs) == 0 {
		recs = c.store.Records()
		sort.Slice(recs, func(i, j int) bool { return recs[i].Label < recs[j].Label })
	}
	type row struct {
		Label     string       `json:"label"`
		Key       string       `json:"key"`
		Telemetry *obs.Summary `json:"telemetry"`
	}
	rows := make([]row, 0, len(recs))
	for _, rec := range recs {
		if rec.Telemetry == nil {
			continue
		}
		rows = append(rows, row{Label: rec.Label, Key: rec.Key, Telemetry: rec.Telemetry})
	}
	writeJSON(w, http.StatusOK, rows)
}

// handlePolicy serves the profile→re-run comparison report of a
// policy_profile campaign: one outcome per (job, policy) with the
// energy/latency deltas against the static baseline. 409 until the
// loop finishes; 404-shaped error for plain sweep campaigns.
func (s *server) handlePolicy(w http.ResponseWriter, r *http.Request) {
	c, ok := s.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	if c.Spec.PolicyProfile == nil {
		writeError(w, http.StatusNotFound, "campaign %q is not a policy_profile campaign", c.ID)
		return
	}
	c.mu.Lock()
	rep, state := c.policy, c.State
	c.mu.Unlock()
	if rep == nil {
		writeError(w, http.StatusConflict, "campaign %q has no policy report yet (state %s)", c.ID, state)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// handleBuildInfo reports how this binary was built (Go version, module
// version, VCS revision and dirty flag) from the info the linker embeds
// — the first thing to check when a deployed daemon misbehaves.
func (s *server) handleBuildInfo(w http.ResponseWriter, r *http.Request) {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		writeError(w, http.StatusInternalServerError, "binary carries no build info")
		return
	}
	out := map[string]string{
		"go":     bi.GoVersion,
		"module": bi.Main.Path,
	}
	if bi.Main.Version != "" {
		out["version"] = bi.Main.Version
	}
	for _, kv := range bi.Settings {
		switch kv.Key {
		case "vcs.revision", "vcs.time", "vcs.modified", "GOARCH", "GOOS":
			out[kv.Key] = kv.Value
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	c, ok := s.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	c.cancel()
	writeJSON(w, http.StatusOK, map[string]string{"id": c.ID, "state": "cancelling"})
}

// handleMetrics exposes the aggregate counters across every campaign
// in Prometheus text exposition format.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	var total campaign.Status
	var telem campaign.Telemetry
	campaigns := len(s.campaigns)
	running := 0
	for _, c := range s.campaigns {
		st := c.engine.Status()
		total.Queued += st.Queued
		total.Running += st.Running
		total.Done += st.Done
		total.Failed += st.Failed
		total.CacheHits += st.CacheHits
		total.CyclesSimulated += st.CyclesSimulated
		total.Violations += st.Violations
		tl := c.engine.Telemetry()
		telem.Jobs += tl.Jobs
		telem.SlotSteals += tl.SlotSteals
		telem.SetupCount += tl.SetupCount
		telem.SetupSum += tl.SetupSum
		telem.DroppedWindows += tl.DroppedWindows
		telem.RingDrops += tl.RingDrops
		for len(telem.RingDropsByShard) < len(tl.RingDropsByShard) {
			telem.RingDropsByShard = append(telem.RingDropsByShard, 0)
		}
		for i, d := range tl.RingDropsByShard {
			telem.RingDropsByShard[i] += d
		}
		if telem.BucketLE == nil {
			telem.BucketLE = tl.BucketLE
			telem.Buckets = make([]uint64, len(tl.Buckets))
		}
		for i, b := range tl.Buckets {
			telem.Buckets[i] += b
		}
		c.mu.Lock()
		if c.State == "running" {
			running++
		}
		c.mu.Unlock()
	}
	s.mu.Unlock()
	if telem.BucketLE == nil {
		// No campaigns yet: emit the empty histogram with its full bucket
		// schema so scrapers see a stable series set from the first scrape.
		telem.BucketLE = obs.LatencyBuckets[:]
		telem.Buckets = make([]uint64, len(obs.LatencyBuckets)+1)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "# HELP nocsimd_jobs_queued Jobs waiting for a worker.\n# TYPE nocsimd_jobs_queued gauge\nnocsimd_jobs_queued %d\n", total.Queued)
	fmt.Fprintf(w, "# HELP nocsimd_jobs_running Jobs currently simulating.\n# TYPE nocsimd_jobs_running gauge\nnocsimd_jobs_running %d\n", total.Running)
	fmt.Fprintf(w, "# HELP nocsimd_jobs_done Jobs completed (including cache hits).\n# TYPE nocsimd_jobs_done counter\nnocsimd_jobs_done %d\n", total.Done)
	fmt.Fprintf(w, "# HELP nocsimd_jobs_failed Jobs failed, timed out, or skipped.\n# TYPE nocsimd_jobs_failed counter\nnocsimd_jobs_failed %d\n", total.Failed)
	fmt.Fprintf(w, "# HELP nocsimd_cache_hits Jobs served from the result cache.\n# TYPE nocsimd_cache_hits counter\nnocsimd_cache_hits %d\n", total.CacheHits)
	fmt.Fprintf(w, "# HELP nocsimd_cycles_simulated Total simulated cycles (warmup + measured).\n# TYPE nocsimd_cycles_simulated counter\nnocsimd_cycles_simulated %d\n", total.CyclesSimulated)
	fmt.Fprintf(w, "# HELP nocsimd_invariant_violations Runtime invariant violations detected in checked jobs.\n# TYPE nocsimd_invariant_violations counter\nnocsimd_invariant_violations %d\n", total.Violations)
	fmt.Fprintf(w, "# HELP nocsimd_campaigns_total Campaigns submitted since start.\n# TYPE nocsimd_campaigns_total counter\nnocsimd_campaigns_total %d\n", campaigns)
	fmt.Fprintf(w, "# HELP nocsimd_campaigns_running Campaigns still executing.\n# TYPE nocsimd_campaigns_running gauge\nnocsimd_campaigns_running %d\n", running)
	fmt.Fprintf(w, "# HELP nocsimd_jobs_inflight Jobs admitted but not finished (queued + running).\n# TYPE nocsimd_jobs_inflight gauge\nnocsimd_jobs_inflight %d\n", total.Queued+total.Running)
	fmt.Fprintf(w, "# HELP nocsimd_telemetry_jobs Jobs run with per-job observability attached.\n# TYPE nocsimd_telemetry_jobs counter\nnocsimd_telemetry_jobs %d\n", telem.Jobs)
	fmt.Fprintf(w, "# HELP nocsimd_slot_steals_total Time-slot steals observed by telemetry jobs.\n# TYPE nocsimd_slot_steals_total counter\nnocsimd_slot_steals_total %d\n", telem.SlotSteals)
	fmt.Fprintf(w, "# HELP nocsimd_telemetry_dropped_windows_total Telemetry windows evicted past MaxSamples (timelines truncated at the head).\n# TYPE nocsimd_telemetry_dropped_windows_total counter\nnocsimd_telemetry_dropped_windows_total %d\n", telem.DroppedWindows)
	fmt.Fprintf(w, "# HELP nocsimd_telemetry_ring_drops_total Telemetry events dropped by full per-worker rings (sampled traces have gaps).\n# TYPE nocsimd_telemetry_ring_drops_total counter\nnocsimd_telemetry_ring_drops_total %d\n", telem.RingDrops)
	if len(telem.RingDropsByShard) > 0 {
		fmt.Fprintf(w, "# HELP nocsimd_telemetry_ring_drops Telemetry ring drops by worker shard.\n# TYPE nocsimd_telemetry_ring_drops counter\n")
		for i, d := range telem.RingDropsByShard {
			fmt.Fprintf(w, "nocsimd_telemetry_ring_drops{shard=\"%d\"} %d\n", i, d)
		}
	}
	fmt.Fprintf(w, "# HELP nocsimd_setup_latency_cycles Circuit setup round-trip latency observed by telemetry jobs.\n# TYPE nocsimd_setup_latency_cycles histogram\n")
	cum := uint64(0)
	for i, le := range telem.BucketLE {
		cum += telem.Buckets[i]
		fmt.Fprintf(w, "nocsimd_setup_latency_cycles_bucket{le=\"%d\"} %d\n", le, cum)
	}
	fmt.Fprintf(w, "nocsimd_setup_latency_cycles_bucket{le=\"+Inf\"} %d\n", telem.SetupCount)
	fmt.Fprintf(w, "nocsimd_setup_latency_cycles_sum %d\n", telem.SetupSum)
	fmt.Fprintf(w, "nocsimd_setup_latency_cycles_count %d\n", telem.SetupCount)
	draining := 0
	if s.draining.Load() {
		draining = 1
	}
	fmt.Fprintf(w, "# HELP nocsimd_draining Whether this instance is draining (1 = refusing new submits).\n# TYPE nocsimd_draining gauge\nnocsimd_draining %d\n", draining)
	if s.coord != nil {
		s.coord.WriteMetrics(w)
	}
	if s.fworker != nil {
		fmt.Fprintf(w, "# HELP nocsimd_worker_shards_done Fleet shards completed by this worker.\n# TYPE nocsimd_worker_shards_done counter\nnocsimd_worker_shards_done %d\n", s.fworker.ShardsDone.Load())
		fmt.Fprintf(w, "# HELP nocsimd_worker_shards_failed Fleet shards abandoned by this worker.\n# TYPE nocsimd_worker_shards_failed counter\nnocsimd_worker_shards_failed %d\n", s.fworker.ShardsFailed.Load())
		fmt.Fprintf(w, "# HELP nocsimd_worker_jobs_run Fleet jobs executed by this worker.\n# TYPE nocsimd_worker_jobs_run counter\nnocsimd_worker_jobs_run %d\n", s.fworker.JobsRun.Load())
		fmt.Fprintf(w, "# HELP nocsimd_worker_lease_errors Failed lease pulls (coordinator unreachable).\n# TYPE nocsimd_worker_lease_errors counter\nnocsimd_worker_lease_errors %d\n", s.fworker.LeaseErrors.Load())
	}
}

// drainAll tells every engine to stop launching jobs and waits (up to
// timeout) for in-flight jobs to land and persist — the graceful half
// of shutdown. New submits are refused with 503 from the moment it is
// called; in -coordinator mode leasing stops too (workers see an empty
// queue and idle), and in -worker mode the pull loop exits after its
// current shard.
func (s *server) drainAll(timeout time.Duration) {
	s.draining.Store(true)
	if s.coord != nil {
		s.coord.Drain()
	}
	if s.fworker != nil {
		s.fworker.Drain()
	}
	s.mu.Lock()
	var waits []chan struct{}
	for _, c := range s.campaigns {
		c.engine.Drain()
		waits = append(waits, c.doneCh)
	}
	s.mu.Unlock()
	deadline := time.After(timeout)
	for _, ch := range waits {
		select {
		case <-ch:
		case <-deadline:
			return
		}
	}
}
