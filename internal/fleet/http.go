package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
)

// Register mounts the coordinator's wire protocol on mux under
// /fleet/. The handlers are a thin JSON skin over the Coordinator
// methods; all policy (quotas, fairness, lease expiry) lives there.
func (c *Coordinator) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /fleet/campaigns", c.handleSubmit)
	mux.HandleFunc("GET /fleet/campaigns", c.handleList)
	mux.HandleFunc("GET /fleet/campaigns/{id}", c.handleStatus)
	mux.HandleFunc("GET /fleet/campaigns/{id}/summary", c.handleSummary)
	mux.HandleFunc("GET /fleet/campaigns/{id}/results", c.handleResults)
	mux.HandleFunc("POST /fleet/lease", c.handleLease)
	mux.HandleFunc("POST /fleet/leases/{id}/renew", c.handleRenew)
	mux.HandleFunc("POST /fleet/leases/{id}/complete", c.handleComplete)
	mux.HandleFunc("GET /fleet/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		c.WriteMetrics(w)
	})
}

// Request-body caps. A submit carries one campaign spec and a lease
// request a worker name; a completion carries one shard's records,
// telemetry summaries included.
const (
	maxRequestBody  = 8 << 20
	maxCompleteBody = 64 << 20
)

// decodeBody decodes a JSON request body of at most limit bytes into v.
// On failure it returns the status to answer with: 413 when the body
// ran past the cap, 400 otherwise.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) (int, error) {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return http.StatusOK, nil
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge, err
	default:
		return http.StatusBadRequest, err
	}
}

func fleetJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func fleetError(w http.ResponseWriter, code int, format string, args ...any) {
	fleetJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// retryAfterSecs is how long a quota or drain rejection asks the client
// to wait before retrying.
const retryAfterSecs = 15

// retryAfter attaches the standard backoff hint header.
func retryAfter(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSecs))
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if code, err := decodeBody(w, r, maxRequestBody, &req); err != nil {
		fleetError(w, code, "decode submit: %v", err)
		return
	}
	resp, err := c.Submit(req)
	switch {
	case errors.Is(err, ErrDraining):
		retryAfter(w)
		fleetError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, ErrJournal):
		// The campaign was refused because its write-ahead record could
		// not be made durable — a server-side storage fault, not a bad
		// request. Retryable once the disk recovers.
		retryAfter(w)
		fleetError(w, http.StatusServiceUnavailable, "%v", err)
	case err != nil:
		var qe *QuotaError
		if errors.As(err, &qe) {
			retryAfter(w)
			fleetError(w, http.StatusTooManyRequests, "%v", err)
			return
		}
		fleetError(w, http.StatusBadRequest, "%v", err)
	default:
		fleetJSON(w, http.StatusAccepted, resp)
	}
}

func (c *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	fleetJSON(w, http.StatusOK, c.Statuses())
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := c.Status(r.PathValue("id"))
	if !ok {
		fleetError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	fleetJSON(w, http.StatusOK, st)
}

// handleSummary serves the campaign's per-group merged aggregates in
// sorted group order — the byte-stable shape the determinism contract
// is checked against.
func (c *Coordinator) handleSummary(w http.ResponseWriter, r *http.Request) {
	agg, ok := c.Summary(r.PathValue("id"))
	if !ok {
		fleetError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	keys, _ := SummaryGroups(agg)
	type row struct {
		Group  string          `json:"group"`
		Result json.RawMessage `json:"result"`
	}
	rows := make([]row, 0, len(keys))
	for _, k := range keys {
		b, err := json.Marshal(agg[k])
		if err != nil {
			fleetError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		rows = append(rows, row{Group: k, Result: b})
	}
	fleetJSON(w, http.StatusOK, rows)
}

// handleResults streams the campaign's records in job order (JSONL
// with ?format=jsonl), plus an X-Fleet-Missing header with the count
// of jobs not yet in the store.
func (c *Coordinator) handleResults(w http.ResponseWriter, r *http.Request) {
	recs, missing, ok := c.Records(r.PathValue("id"))
	if !ok {
		fleetError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	w.Header().Set("X-Fleet-Missing", strconv.Itoa(missing))
	if r.URL.Query().Get("format") == "jsonl" {
		w.Header().Set("Content-Type", "application/jsonl")
		enc := json.NewEncoder(w)
		for _, rec := range recs {
			enc.Encode(rec)
		}
		return
	}
	fleetJSON(w, http.StatusOK, recs)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if code, err := decodeBody(w, r, maxRequestBody, &req); err != nil && !errors.Is(err, io.EOF) {
		fleetError(w, code, "decode lease: %v", err)
		return
	}
	resp, ok := c.Lease(req.Worker)
	if !ok {
		// No work (or draining): 204 tells the worker to idle-poll, not
		// to treat it as an error.
		w.WriteHeader(http.StatusNoContent)
		return
	}
	fleetJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleRenew(w http.ResponseWriter, r *http.Request) {
	if c.Renew(r.PathValue("id")) {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	fleetError(w, http.StatusGone, "lease %q expired or unknown", r.PathValue("id"))
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if code, err := decodeBody(w, r, maxCompleteBody, &req); err != nil {
		fleetError(w, code, "decode complete: %v", err)
		return
	}
	resp, err := c.Complete(r.PathValue("id"), req.Records)
	if err != nil {
		fleetError(w, http.StatusNotFound, "%v", err)
		return
	}
	fleetJSON(w, http.StatusOK, resp)
}

// WriteMetrics emits the coordinator counters in Prometheus text
// exposition format. cmd/nocsimd folds this into its /metrics when
// running as a coordinator.
func (c *Coordinator) WriteMetrics(w io.Writer) {
	m := c.Metrics()
	fmt.Fprintf(w, "# HELP fleet_campaigns_total Campaigns admitted since start.\n# TYPE fleet_campaigns_total counter\nfleet_campaigns_total %d\n", m.CampaignsTotal)
	fmt.Fprintf(w, "# HELP fleet_campaigns_running Campaigns with unfinished shards.\n# TYPE fleet_campaigns_running gauge\nfleet_campaigns_running %d\n", m.CampaignsRunning)
	fmt.Fprintf(w, "# HELP fleet_queue_depth Shards awaiting lease.\n# TYPE fleet_queue_depth gauge\nfleet_queue_depth %d\n", m.QueueDepth)
	fmt.Fprintf(w, "# HELP fleet_leases_active Shards currently leased to workers.\n# TYPE fleet_leases_active gauge\nfleet_leases_active %d\n", m.LeasesActive)
	fmt.Fprintf(w, "# HELP fleet_leases_expired_total Leases expired and re-queued.\n# TYPE fleet_leases_expired_total counter\nfleet_leases_expired_total %d\n", m.LeasesExpired)
	fmt.Fprintf(w, "# HELP fleet_submits_rejected_total Submits rejected by quota or drain.\n# TYPE fleet_submits_rejected_total counter\nfleet_submits_rejected_total %d\n", m.SubmitsRejected)
	fmt.Fprintf(w, "# HELP fleet_jobs_completed_total Jobs whose records landed.\n# TYPE fleet_jobs_completed_total counter\nfleet_jobs_completed_total %d\n", m.JobsCompleted)
	fmt.Fprintf(w, "# HELP fleet_jobs_failed_total Job failures reported by workers.\n# TYPE fleet_jobs_failed_total counter\nfleet_jobs_failed_total %d\n", m.JobsFailed)
	fmt.Fprintf(w, "# HELP fleet_records_persisted_total Records written to the sharded store.\n# TYPE fleet_records_persisted_total counter\nfleet_records_persisted_total %d\n", m.RecordsPersisted)
	fmt.Fprintf(w, "# HELP fleet_records_duplicate_total Completion records deduped by the store.\n# TYPE fleet_records_duplicate_total counter\nfleet_records_duplicate_total %d\n", m.RecordsDuplicate)
	fmt.Fprintf(w, "# HELP fleet_store_shards_compacted_total Store shard files rewritten by compaction.\n# TYPE fleet_store_shards_compacted_total counter\nfleet_store_shards_compacted_total %d\n", m.ShardsCompacted)
	fmt.Fprintf(w, "# HELP fleet_store_live_records Live records across store shards.\n# TYPE fleet_store_live_records gauge\nfleet_store_live_records %d\n", m.StoreLive)
	fmt.Fprintf(w, "# HELP fleet_store_dead_lines Dead lines awaiting compaction.\n# TYPE fleet_store_dead_lines gauge\nfleet_store_dead_lines %d\n", m.StoreDead)
	writeTenantGauge(w, "fleet_tenant_inflight_jobs", "Leased jobs per tenant.", m.TenantInflight)
	writeTenantGauge(w, "fleet_tenant_queued_jobs", "Queued jobs per tenant.", m.TenantQueued)
	fmt.Fprintf(w, "# HELP fleet_accounting_underflow_total Tenant usage updates clamped at zero (accounting bug indicator).\n# TYPE fleet_accounting_underflow_total counter\nfleet_accounting_underflow_total %d\n", m.AccountingUnderflow)
	enabled := 0
	if m.JournalEnabled {
		enabled = 1
	}
	fmt.Fprintf(w, "# HELP fleet_journal_enabled Whether a write-ahead journal is configured.\n# TYPE fleet_journal_enabled gauge\nfleet_journal_enabled %d\n", enabled)
	fmt.Fprintf(w, "# HELP fleet_journal_records_total Journal records appended since start.\n# TYPE fleet_journal_records_total counter\nfleet_journal_records_total %d\n", m.JournalRecords)
	fmt.Fprintf(w, "# HELP fleet_journal_syncs_total Journal fsyncs.\n# TYPE fleet_journal_syncs_total counter\nfleet_journal_syncs_total %d\n", m.JournalSyncs)
	fmt.Fprintf(w, "# HELP fleet_journal_rotations_total Journal snapshot rotations.\n# TYPE fleet_journal_rotations_total counter\nfleet_journal_rotations_total %d\n", m.JournalRotations)
	fmt.Fprintf(w, "# HELP fleet_journal_errors_total Journal append or rotation failures.\n# TYPE fleet_journal_errors_total counter\nfleet_journal_errors_total %d\n", m.JournalErrors)
	fmt.Fprintf(w, "# HELP fleet_journal_size_bytes Current journal file size.\n# TYPE fleet_journal_size_bytes gauge\nfleet_journal_size_bytes %d\n", m.JournalSizeBytes)
	fmt.Fprintf(w, "# HELP fleet_journal_replayed_records Journal records replayed at startup.\n# TYPE fleet_journal_replayed_records gauge\nfleet_journal_replayed_records %d\n", m.JournalReplayed)
}

func writeTenantGauge(w io.Writer, name, help string, counts map[string]int) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	tenants := make([]string, 0, len(counts))
	for t := range counts {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	for _, t := range tenants {
		fmt.Fprintf(w, "%s{tenant=%q} %d\n", name, t, counts[t])
	}
}
