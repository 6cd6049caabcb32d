package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"tdmnoc/internal/campaign"
	"tdmnoc/internal/obs"
)

// Register mounts the coordinator's wire protocol on mux under
// /fleet/. The handlers are a thin JSON skin over the Coordinator
// methods; all policy (the admission cap, fairness, lease expiry) lives
// there.
func (c *Coordinator) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /fleet/campaigns", c.handleSubmit)
	mux.HandleFunc("GET /fleet/campaigns", c.handleList)
	mux.HandleFunc("GET /fleet/campaigns/{id}", c.handleStatus)
	mux.HandleFunc("GET /fleet/campaigns/{id}/summary", c.handleSummary)
	mux.HandleFunc("GET /fleet/campaigns/{id}/results", c.handleResults)
	mux.HandleFunc("GET /fleet/campaigns/{id}/timeline", c.handleTimeline)
	mux.HandleFunc("GET /fleet/campaigns/{id}/policy", c.handlePolicy)
	mux.HandleFunc("POST /fleet/campaigns/{id}/cancel", c.handleCancel)
	mux.HandleFunc("POST /fleet/lease", c.handleLease)
	mux.HandleFunc("POST /fleet/leases/{id}/renew", c.handleRenew)
	mux.HandleFunc("POST /fleet/leases/{id}/complete", c.handleComplete)
	mux.HandleFunc("GET /fleet/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		c.WriteMetrics(w)
	})
}

// Request-body caps. A submit carries one campaign spec and a lease
// request nothing (an older worker's name is read and ignored); a
// completion carries one shard's records, telemetry summaries included.
const (
	maxRequestBody  = 8 << 20
	maxCompleteBody = 64 << 20
)

// decodeBody decodes a JSON request body of at most limit bytes into v.
// strict refuses unknown fields, which a submit needs: a misspelt spec
// axis must fail the submit, not run a grid the caller did not write.
// The worker protocol stays lenient, so a worker one version ahead
// (a record with a field this coordinator lacks) can still complete.
// On failure it returns the status to answer with: 413 when the body
// ran past the cap, 400 otherwise.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, strict bool, v any) (int, error) {
	body, code, err := readBody(w, r, limit)
	if err != nil {
		return code, err
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	if strict {
		dec.DisallowUnknownFields()
	}
	if err := dec.Decode(v); err != nil {
		return http.StatusBadRequest, err
	}
	return http.StatusOK, nil
}

// readBody reads a request body of at most limit bytes. On failure it
// returns the status to answer with: 413 past the cap, 400 otherwise.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, int, error) {
	var b bytes.Buffer
	if n := r.ContentLength; n > 0 && n <= limit {
		b.Grow(int(n) + bytes.MinRead)
	}
	_, err := b.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return b.Bytes(), http.StatusOK, nil
	case errors.As(err, &tooBig):
		return nil, http.StatusRequestEntityTooLarge, err
	default:
		return nil, http.StatusBadRequest, err
	}
}

func fleetJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// fleetIndented writes the compact JSON b as fleetJSON writes the value
// b encodes: indented by two spaces, newline-terminated.
func fleetIndented(w http.ResponseWriter, code int, b []byte) {
	var out bytes.Buffer
	out.Grow(len(b) + len(b)/4)
	_ = json.Indent(&out, append(b, '\n'), "", "  ") // b is an encoder's output, valid JSON
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(out.Bytes())
}

func fleetError(w http.ResponseWriter, code int, format string, args ...any) {
	fleetJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// retryAfterSecs is how long a cap or drain rejection asks the client
// to wait before retrying.
const retryAfterSecs = 15

// retryAfter attaches the standard backoff hint header.
func retryAfter(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSecs))
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if code, err := decodeBody(w, r, maxRequestBody, true, &req); err != nil {
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
		b, err := campaign.AppendResultJSON(nil, agg[k])
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
		// One line per record, as json.Encoder writes them, flushed in
		// blocks so a large campaign is never held whole.
		w.Header().Set("Content-Type", "application/jsonl")
		var b []byte
		for i, rec := range recs {
			if line, err := rec.AppendJSON(b); err == nil { // as Encode, skip what does not encode
				b = append(line, '\n')
			}
			if len(b) >= 64<<10 || i == len(recs)-1 {
				w.Write(b)
				b = b[:0]
			}
		}
		return
	}
	b, err := appendRecords(nil, recs)
	if err != nil {
		fleetError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	fleetIndented(w, http.StatusOK, b)
}

// handleTimeline serves the per-job observability summaries of a
// telemetry campaign (specs with telemetry_every): one row per record
// /results serves that carries one, in job order. A campaign run
// without telemetry has an empty timeline.
func (c *Coordinator) handleTimeline(w http.ResponseWriter, r *http.Request) {
	recs, _, ok := c.Records(r.PathValue("id"))
	if !ok {
		fleetError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	type row struct {
		Label     string       `json:"label"`
		Key       string       `json:"key"`
		Telemetry *obs.Summary `json:"telemetry"`
	}
	rows := make([]row, 0, len(recs))
	for _, rec := range recs {
		if rec.Telemetry != nil {
			rows = append(rows, row{Label: rec.Label, Key: rec.Key, Telemetry: rec.Telemetry})
		}
	}
	fleetJSON(w, http.StatusOK, rows)
}

// handlePolicy serves a policy_profile campaign's comparison report:
// Spec.Report over the campaign's records, as a local run computes it.
// 404 for a plain campaign, 409 until the campaign is done.
func (c *Coordinator) handlePolicy(w http.ResponseWriter, r *http.Request) {
	st, ok := c.Status(r.PathValue("id"))
	switch {
	case !ok:
		fleetError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	case st.Spec.PolicyProfile == nil:
		fleetError(w, http.StatusNotFound, "campaign %q is not a policy_profile campaign", st.ID)
		return
	case st.State != "done":
		fleetError(w, http.StatusConflict, "campaign %q has no policy report yet (state %s)", st.ID, st.State)
		return
	}
	grid, err := st.Spec.Expand()
	if err != nil {
		fleetError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	fleetJSON(w, http.StatusOK, st.Spec.Report(grid, c.opt.Store.Lookup))
}

func (c *Coordinator) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, ok := c.Cancel(r.PathValue("id"))
	if !ok {
		fleetError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	fleetJSON(w, http.StatusOK, st)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	if code, err := decodeBody(w, r, maxRequestBody, false, &struct{}{}); err != nil && !errors.Is(err, io.EOF) {
		fleetError(w, code, "decode lease: %v", err)
		return
	}
	resp, spec, ok := c.lease()
	if !ok {
		// No work (or draining): 204 tells the worker to idle-poll, not
		// to treat it as an error.
		w.WriteHeader(http.StatusNoContent)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(appendLease(make([]byte, 0, len(spec)+256), resp, spec))
}

func (c *Coordinator) handleRenew(w http.ResponseWriter, r *http.Request) {
	if c.Renew(r.PathValue("id")) {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	fleetError(w, http.StatusGone, "lease %q expired or unknown", r.PathValue("id"))
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	body, code, err := readBody(w, r, maxCompleteBody)
	var req CompleteRequest
	if err == nil {
		code = http.StatusBadRequest
		req, err = decodeComplete(body)
	}
	if err != nil {
		fleetError(w, code, "decode complete: %v", err)
		return
	}
	resp, err := c.Complete(r.PathValue("id"), req.Records)
	code = completeStatus(err)
	if err != nil {
		if code == http.StatusServiceUnavailable {
			retryAfter(w)
		}
		fleetError(w, code, "%v", err)
		return
	}
	fleetJSON(w, code, resp)
}

// completeStatus is the answer to a Complete error, for the handler and
// the in-process worker alike: 503 for a store fault, which the worker
// retries; 404 for a lease the coordinator cannot resolve, which it
// abandons.
func completeStatus(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, ErrStore):
		return http.StatusServiceUnavailable
	}
	return http.StatusNotFound
}

// WriteMetrics emits the coordinator counters in Prometheus text
// exposition format, on /fleet/metrics and in nocsimd's /metrics.
func (c *Coordinator) WriteMetrics(w io.Writer) {
	m := c.Metrics()
	fmt.Fprintf(w, "# HELP fleet_campaigns_total Campaigns admitted since start.\n# TYPE fleet_campaigns_total counter\nfleet_campaigns_total %d\n", m.CampaignsTotal)
	fmt.Fprintf(w, "# HELP fleet_campaigns_running Campaigns with unfinished shards.\n# TYPE fleet_campaigns_running gauge\nfleet_campaigns_running %d\n", m.CampaignsRunning)
	fmt.Fprintf(w, "# HELP fleet_queue_depth Shards awaiting lease.\n# TYPE fleet_queue_depth gauge\nfleet_queue_depth %d\n", m.QueueDepth)
	fmt.Fprintf(w, "# HELP fleet_leases_active Shards currently leased to workers.\n# TYPE fleet_leases_active gauge\nfleet_leases_active %d\n", m.LeasesActive)
	fmt.Fprintf(w, "# HELP fleet_leases_expired_total Leases expired and re-queued.\n# TYPE fleet_leases_expired_total counter\nfleet_leases_expired_total %d\n", m.LeasesExpired)
	fmt.Fprintf(w, "# HELP fleet_submits_rejected_total Submits rejected by quota or drain.\n# TYPE fleet_submits_rejected_total counter\nfleet_submits_rejected_total %d\n", m.SubmitsRejected)
	fmt.Fprintf(w, "# HELP fleet_jobs_completed_total Jobs whose records landed.\n# TYPE fleet_jobs_completed_total counter\nfleet_jobs_completed_total %d\n", m.JobsCompleted)
	fmt.Fprintf(w, "# HELP fleet_jobs_failed_total Jobs of completed shards whose records the store lacks.\n# TYPE fleet_jobs_failed_total counter\nfleet_jobs_failed_total %d\n", m.JobsFailed)
	fmt.Fprintf(w, "# HELP fleet_records_persisted_total Records written to the sharded store.\n# TYPE fleet_records_persisted_total counter\nfleet_records_persisted_total %d\n", m.RecordsPersisted)
	fmt.Fprintf(w, "# HELP fleet_records_duplicate_total Completion records deduped by the store.\n# TYPE fleet_records_duplicate_total counter\nfleet_records_duplicate_total %d\n", m.RecordsDuplicate)
	fmt.Fprintf(w, "# HELP fleet_store_live_records Live records across store shards.\n# TYPE fleet_store_live_records gauge\nfleet_store_live_records %d\n", m.StoreLive)
	fmt.Fprintf(w, "# HELP fleet_store_dead_lines Store lines that repeat a live record's key; non-zero only if two processes shared the data dir.\n# TYPE fleet_store_dead_lines gauge\nfleet_store_dead_lines %d\n", m.StoreDead)
	fmt.Fprintf(w, "# HELP fleet_outstanding_jobs Jobs in queued shards and active leases (the admission cap's count).\n# TYPE fleet_outstanding_jobs gauge\nfleet_outstanding_jobs %d\n", m.Outstanding)
	fmt.Fprintf(w, "# HELP fleet_journal_syncs_total Journal records appended and fsynced since start.\n# TYPE fleet_journal_syncs_total counter\nfleet_journal_syncs_total %d\n", m.JournalSyncs)
	fmt.Fprintf(w, "# HELP fleet_journal_errors_total Journal append failures.\n# TYPE fleet_journal_errors_total counter\nfleet_journal_errors_total %d\n", m.JournalErrors)
	fmt.Fprintf(w, "# HELP fleet_journal_size_bytes Current journal file size.\n# TYPE fleet_journal_size_bytes gauge\nfleet_journal_size_bytes %d\n", m.JournalSizeBytes)
	fmt.Fprintf(w, "# HELP fleet_journal_replayed_records Journal records replayed at startup.\n# TYPE fleet_journal_replayed_records gauge\nfleet_journal_replayed_records %d\n", m.JournalReplayed)
	t := m.Telemetry
	fmt.Fprintf(w, "# HELP fleet_telemetry_jobs_total Persisted records carrying an observability summary.\n# TYPE fleet_telemetry_jobs_total counter\nfleet_telemetry_jobs_total %d\n", t.Jobs)
	fmt.Fprintf(w, "# HELP fleet_slot_steals_total Time-slot steals observed by telemetry jobs.\n# TYPE fleet_slot_steals_total counter\nfleet_slot_steals_total %d\n", t.SlotSteals)
	fmt.Fprintf(w, "# HELP fleet_telemetry_dropped_windows_total Telemetry windows evicted past the 4096 a recorder retains (timelines truncated at the head).\n# TYPE fleet_telemetry_dropped_windows_total counter\nfleet_telemetry_dropped_windows_total %d\n", t.DroppedWindows)
	fmt.Fprintf(w, "# HELP fleet_telemetry_ring_drops_total Telemetry events dropped by full event rings (sampled traces have gaps).\n# TYPE fleet_telemetry_ring_drops_total counter\nfleet_telemetry_ring_drops_total %d\n", t.RingDrops)
	fmt.Fprintf(w, "# HELP fleet_setup_latency_cycles Circuit setup round-trip latency observed by telemetry jobs.\n# TYPE fleet_setup_latency_cycles histogram\n")
	cum := uint64(0)
	for i, le := range obs.LatencyBuckets {
		cum += t.SetupLatency.Counts[i]
		fmt.Fprintf(w, "fleet_setup_latency_cycles_bucket{le=\"%d\"} %d\n", le, cum)
	}
	fmt.Fprintf(w, "fleet_setup_latency_cycles_bucket{le=\"+Inf\"} %d\n", t.SetupLatency.Total)
	fmt.Fprintf(w, "fleet_setup_latency_cycles_sum %d\n", t.SetupLatency.Sum)
	fmt.Fprintf(w, "fleet_setup_latency_cycles_count %d\n", t.SetupLatency.Total)
}
