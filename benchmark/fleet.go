package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tdmnoc/hsnoc"
	"tdmnoc/internal/campaign"
	"tdmnoc/internal/fleet"
	"tdmnoc/internal/obs"
	"tdmnoc/internal/stats"
)

// fleetSpec is the Fig. 4-style grid both fleet workloads submit:
// modes x patterns x rates x seeds on the default 6x6 mesh. Seeds are
// derived from the workload seed, so every run starts from a cold
// store.
func fleetSpec(seed uint64, seeds, warm, measure int) campaign.Spec {
	s := campaign.Spec{
		Name:          "benchmark",
		Modes:         []string{"packet", "tdm", "sdm"},
		Patterns:      []string{"ur", "tornado", "transpose"},
		Rates:         []float64{0.05, 0.10, 0.15},
		WarmupCycles:  warm,
		MeasureCycles: measure,
	}
	for i := 0; i < seeds; i++ {
		s.Seeds = append(s.Seeds, seed*100_000+uint64(i)+1)
	}
	return s
}

// modeToken names a job's mode the way specs spell it.
func modeToken(m hsnoc.Mode) string {
	switch m {
	case hsnoc.HybridTDM:
		return "tdm"
	case hsnoc.HybridSDM:
		return "sdm"
	}
	return "packet"
}

// samples collects timings by key from several goroutines.
type samples struct {
	mu sync.Mutex
	m  map[string][]float64
}

func newSamples() *samples { return &samples{m: map[string][]float64{}} }

func (s *samples) add(key string, seconds float64) {
	s.mu.Lock()
	s.m[key] = append(s.m[key], seconds)
	s.mu.Unlock()
}

func (s *samples) get(key string) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.m[key]...)
}

func (s *samples) sum(key string) float64 {
	t := 0.0
	for _, v := range s.get(key) {
		t += v
	}
	return t
}

// pathClass names a fleet endpoint for timing keys and span names.
func pathClass(method, path string) string {
	switch {
	case path == "/fleet/lease":
		return "lease"
	case strings.HasSuffix(path, "/complete"):
		return "complete"
	case strings.HasSuffix(path, "/renew"):
		return "renew"
	case strings.HasSuffix(path, "/summary"):
		return "summary"
	case strings.HasSuffix(path, "/results"):
		return "results"
	case path == "/fleet/campaigns" && method == http.MethodPost:
		return "submit"
	case strings.HasPrefix(path, "/fleet/campaigns/"):
		return "status"
	}
	return "other"
}

// spanHeader carries "<span id>:<lane>" from the benchmark's HTTP
// client to its handler middleware, so a handler span names the round
// trip that caused it.
const spanHeader = "X-Bench-Span"

// timedTransport is the RoundTripper the benchmark hands to
// WorkerOptions.Client: it times every round trip (to response
// headers) and opens the client-side span.
type timedTransport struct {
	base http.RoundTripper
	lat  *samples
	tr   *tracer
	lane int
	// shard is the open "worker:shard" span of a worker's transport: it
	// runs from a granted lease to the start of its completion, so its
	// self time is what fleet.Worker spends outside the Runner (job
	// re-derivation, the per-shard engine). -1 = none open.
	shard atomic.Int64
}

func newTimedTransport(lat *samples, tr *tracer, lane int) *timedTransport {
	t := &timedTransport{base: http.DefaultTransport, lat: lat, tr: tr, lane: lane}
	t.shard.Store(-1)
	return t
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	class := pathClass(req.Method, req.URL.Path)
	if class == "complete" {
		t.tr.end(int(t.shard.Swap(-1)))
	}
	sp := t.tr.begin("http:"+class, t.lane, -1, -1)
	if sp >= 0 {
		req = req.Clone(req.Context()) // a RoundTripper must not mutate the caller's request
		req.Header.Set(spanHeader, fmt.Sprintf("%d:%d", sp, t.lane))
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	t.lat.add("rtt:"+class, time.Since(start).Seconds())
	t.tr.end(sp)
	if class == "lease" && err == nil && resp.StatusCode == http.StatusOK {
		t.shard.Store(int64(t.tr.begin("worker:shard", t.lane, -1, -1)))
	}
	return resp, err
}

// timedHandler is the middleware on the benchmark-owned mux: handler
// time per endpoint, and the handler-side span under its round trip.
func timedHandler(next http.Handler, lat *samples, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		class := pathClass(r.Method, r.URL.Path)
		parent, lane := -1, 10
		if id, l, ok := strings.Cut(r.Header.Get(spanHeader), ":"); ok {
			if p, err := strconv.Atoi(id); err == nil {
				parent = p
			}
			if n, err := strconv.Atoi(l); err == nil {
				lane = 10 + n
			}
		}
		sp := tr.begin("handler:"+class, lane, -1, parent)
		start := time.Now()
		next.ServeHTTP(w, r)
		lat.add("handler:"+class, time.Since(start).Seconds())
		tr.end(sp)
	})
}

// inproc is a coordinator with its journal and sharded store, served
// over loopback HTTP from inside the benchmark process.
type inproc struct {
	store  *campaign.ShardedStore
	coord  *fleet.Coordinator
	srv    *http.Server
	url    string
	served chan error
}

// openInproc opens (or re-opens) the store and journal under dir and
// serves the coordinator. The spans cover the calls into campaign and
// fleet; replay happens inside NewCoordinator.
func openInproc(dir string, shardSize int, lat *samples, tr *tracer) (*inproc, error) {
	sp := tr.begin("OpenShardedStore", 0, -1, -1)
	store, err := campaign.OpenShardedStore(filepath.Join(dir, "fleet"))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("NewCoordinator", 0, -1, -1)
	coord, err := fleet.NewCoordinator(fleet.Options{
		Store:     store,
		ShardSize: shardSize,
		Journal:   filepath.Join(dir, "fleet.journal"),
	})
	tr.end(sp)
	if err != nil {
		store.Close()
		return nil, err
	}
	coord.Resume() // as nocsimd does after a replay
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		coord.Close()
		store.Close()
		return nil, err
	}
	mux := http.NewServeMux()
	coord.Register(mux)
	p := &inproc{
		store:  store,
		coord:  coord,
		srv:    &http.Server{Handler: timedHandler(mux, lat, tr)},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { p.served <- p.srv.Serve(ln) }()
	return p, nil
}

// close stops serving and releases journal and store, in nocsimd's
// shutdown order.
func (p *inproc) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := p.srv.Shutdown(ctx)
	<-p.served
	p.coord.WaitCompactions()
	if cerr := p.coord.Close(); err == nil {
		err = cerr
	}
	if cerr := p.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// startWorkers runs n single-job fleet workers against url until the
// returned stop function is called; stop waits for them to exit.
// runner builds worker k's Runner; shard reports that worker's open
// "worker:shard" span, the parent of its Runner spans.
func startWorkers(url string, n int, poll time.Duration, runner func(k int, shard func() int) campaign.Runner, lat *samples, tr *tracer) (stop func(), err error) {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for k := 1; k <= n; k++ {
		transport := newTimedTransport(lat, tr, k)
		w, err := fleet.NewWorker(fleet.WorkerOptions{
			Coordinator:  url,
			Name:         fmt.Sprintf("bench-worker-%d", k),
			Workers:      1,
			PollInterval: poll,
			Runner:       runner(k, func() int { return int(transport.shard.Load()) }),
			Client:       &http.Client{Timeout: 30 * time.Second, Transport: transport},
		})
		if err != nil {
			cancel()
			wg.Wait()
			return nil, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx) // returns nil on cancel; unreachability is retried inside
		}()
	}
	return func() { cancel(); wg.Wait() }, nil
}

// fleetClient speaks the /fleet/ wire protocol the way cmd/sweep does.
type fleetClient struct {
	base string
	http *http.Client
	lat  *samples
}

func newFleetClient(base string, lat *samples, tr *tracer) *fleetClient {
	return &fleetClient{base: base, lat: lat, http: &http.Client{
		Timeout:   60 * time.Second,
		Transport: newTimedTransport(lat, tr, 0),
	}}
}

// do issues one request and returns the whole body; the elapsed time
// (including the body) is filed under key.
func (c *fleetClient) do(key, method, path string, body []byte, want int) ([]byte, error) {
	start := time.Now()
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	c.lat.add(key, time.Since(start).Seconds())
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

func (c *fleetClient) submit(spec campaign.Spec) (fleet.SubmitResponse, error) {
	var resp fleet.SubmitResponse
	body, err := json.Marshal(fleet.SubmitRequest{Tenant: "benchmark", Spec: spec})
	if err != nil {
		return resp, err
	}
	b, err := c.do("client:submit", http.MethodPost, "/fleet/campaigns", body, http.StatusAccepted)
	if err != nil {
		return resp, err
	}
	return resp, json.Unmarshal(b, &resp)
}

// waitDone polls the campaign's status until it reports done.
func (c *fleetClient) waitDone(id string, every, limit time.Duration) (fleet.CampaignStatus, error) {
	var st fleet.CampaignStatus
	deadline := time.Now().Add(limit)
	for {
		b, err := c.do("client:status", http.MethodGet, "/fleet/campaigns/"+id, nil, http.StatusOK)
		if err != nil {
			return st, err
		}
		if err := json.Unmarshal(b, &st); err != nil {
			return st, err
		}
		if st.State == "done" {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("campaign %s not done after %v: %d/%d shards", id, limit, st.ShardsDone, st.Shards)
		}
		time.Sleep(every)
	}
}

func (c *fleetClient) summary(id string) ([]byte, error) {
	return c.do("client:summary", http.MethodGet, "/fleet/campaigns/"+id+"/summary", nil, http.StatusOK)
}

// results fetches the campaign's records in job order.
func (c *fleetClient) results(id string) ([]campaign.Record, int, error) {
	b, err := c.do("client:results", http.MethodGet, "/fleet/campaigns/"+id+"/results?format=jsonl", nil, http.StatusOK)
	if err != nil {
		return nil, 0, err
	}
	var recs []campaign.Record
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		var r campaign.Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, 0, fmt.Errorf("results line %d: %w", len(recs)+1, err)
		}
		recs = append(recs, r)
	}
	return recs, len(b), sc.Err()
}

// counter reads one un-labelled counter from the Prometheus text the
// coordinator serves.
func (c *fleetClient) counter(name string) (float64, error) {
	b, err := c.do("client:metrics", http.MethodGet, "/fleet/metrics", nil, http.StatusOK)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, fmt.Errorf("metric %s not served", name)
}

// summaryJSON renders aggregates exactly as the coordinator's /summary
// handler does, so a locally computed campaign.Aggregate can be
// compared with the served bytes.
func summaryJSON(agg map[string]stats.RunRecord) ([]byte, error) {
	keys, _ := fleet.SummaryGroups(agg)
	type row struct {
		Group  string          `json:"group"`
		Result json.RawMessage `json:"result"`
	}
	rows := make([]row, 0, len(keys))
	for _, k := range keys {
		b, err := json.Marshal(agg[k])
		if err != nil {
			return nil, err
		}
		rows = append(rows, row{Group: k, Result: b})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rows); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// checkRecords is the health check of a fleet campaign: every job has
// a persisted record in job order, none carries an error, and every
// record accepted at least healthFloor of its offered rate. It returns
// the number of failed jobs.
func checkRecords(o *outcome, what string, jobs []campaign.Job, recs []campaign.Record) {
	if len(recs) != len(jobs) {
		o.fail(max(len(jobs)-len(recs), 1), "%s: %d records for %d jobs", what, len(recs), len(jobs))
		return
	}
	bad, first := 0, ""
	for i, r := range recs {
		var why string
		switch {
		case r.Key != jobs[i].Key:
			why = fmt.Sprintf("job %d: record key %.12s != job key %.12s", i, r.Key, jobs[i].Key)
		case r.Err != "":
			why = fmt.Sprintf("job %d (%s): %s", i, r.Label, r.Err)
		default:
			if miss, ok := healthy(jobs[i].Pattern, r.Width, r.Height, r.Rate, r.Result.PayloadThroughput()); !ok {
				why = fmt.Sprintf("job %d (%s): %s", i, r.Label, miss)
			}
		}
		if why != "" {
			bad++
			if first == "" {
				first = why
			}
		}
	}
	if bad > 0 {
		o.fail(bad, "%s: %d unhealthy records; first: %s", what, bad, first)
	}
}

// instantRunner stands in for the simulator on ctrl_plane: a fixed,
// healthy record per job, returned at once.
func instantRunner(_ context.Context, j campaign.Job) (stats.RunRecord, *obs.Summary, error) {
	return stats.RunRecord{
		Runs:          1,
		Cycles:        int64(j.Measure),
		Packets:       int64(j.Rate * float64(j.Measure) * 36 / 5),
		FlitCycles:    j.Rate * float64(j.Measure),
		PayloadCycles: j.Rate * float64(j.Measure),
		EnergyPJ:      1e6,
	}, nil, nil
}
