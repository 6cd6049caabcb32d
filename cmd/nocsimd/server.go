package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"tdmnoc/internal/campaign"
	"tdmnoc/internal/fleet"
)

// config is what the command line selects.
type config struct {
	data       string
	workers    int
	jobTimeout time.Duration

	coordinator    bool   // serve the fleet with no in-process worker
	workerURL      string // pull from that coordinator instead of serving one
	shardSize      int
	leaseTTL       time.Duration
	maxOutstanding int
	journal        string
}

// server is one nocsimd process. Standalone (the default) it is a
// fleet coordinator over <data>/fleet plus one in-process worker that
// calls the coordinator directly; -coordinator is the same without the
// worker; -worker URL is only a worker, pulling over HTTP. Campaigns are
// served by the coordinator's /fleet/ routes (internal/fleet) in every
// mode that has one.
type server struct {
	store  *campaign.ShardedStore // nil in -worker mode
	coord  *fleet.Coordinator     // nil in -worker mode
	worker *fleet.Worker          // nil in -coordinator mode
}

// localPoll is how often the idle in-process worker asks the
// coordinator for work. The ask is a direct call costing microseconds,
// so polling this often keeps a new campaign's first lease prompt.
const localPoll = 25 * time.Millisecond

func newServer(cfg config) (*server, error) {
	wopt := fleet.WorkerOptions{Coordinator: cfg.workerURL, Workers: cfg.workers, JobTimeout: cfg.jobTimeout}
	if cfg.workerURL != "" {
		if cfg.coordinator {
			return nil, errors.New("-coordinator and -worker are exclusive: a worker pulls from another process's coordinator")
		}
		w, err := fleet.NewWorker(wopt)
		return &server{worker: w}, err
	}
	if err := os.MkdirAll(cfg.data, 0o755); err != nil {
		return nil, err
	}
	store, err := campaign.OpenShardedStore(filepath.Join(cfg.data, "fleet"))
	if err != nil {
		return nil, err
	}
	coord, err := fleet.NewCoordinator(fleet.Options{
		Store:          store,
		ShardSize:      cfg.shardSize,
		LeaseTTL:       cfg.leaseTTL,
		MaxOutstanding: cfg.maxOutstanding,
		Journal:        cfg.journal,
	})
	if err != nil {
		store.Close()
		return nil, err
	}
	if n := coord.Recovered(); n > 0 {
		fmt.Printf("nocsimd: journal %s: replayed %d records\n", cfg.journal, n)
	}
	s := &server{store: store, coord: coord}
	if !cfg.coordinator {
		wopt.Name, wopt.PollInterval = "local", localPoll
		s.worker = fleet.NewLocalWorker(coord, wopt)
	}
	return s, nil
}

func (s *server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	if s.coord != nil {
		s.coord.Register(mux)
	}
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /buildinfo", handleBuildInfo)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

// runWorker runs the worker's pull loop until ctx is cancelled or a
// drain lets it finish; the returned channel closes when it has
// returned (at once when the process has no worker).
func (s *server) runWorker(ctx context.Context) <-chan struct{} {
	done := make(chan struct{})
	if s.worker == nil {
		close(done)
		return done
	}
	go func() {
		defer close(done)
		s.worker.Run(ctx)
	}()
	return done
}

// drain is the graceful half of shutdown: the coordinator stops
// admitting campaigns (503 + Retry-After) and granting leases, while
// renewals and completions still land; the worker exits once its
// held shards are settled (fleet.Worker.Drain).
func (s *server) drain() {
	if s.coord != nil {
		s.coord.Drain()
	}
	if s.worker != nil {
		s.worker.Drain()
	}
}

// close releases the journal and the store once the worker is gone.
func (s *server) close() {
	if s.coord != nil {
		s.coord.WaitCompactions()
		s.coord.Close()
		s.store.Close()
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// handleBuildInfo reports how this binary was built (Go version, module
// version, VCS revision and dirty flag) from the info the linker embeds
// — the first thing to check when a deployed daemon misbehaves.
func handleBuildInfo(w http.ResponseWriter, r *http.Request) {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": "binary carries no build info"})
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

// handleMetrics serves the process's counters in Prometheus text
// exposition format: the coordinator's fleet_* series, when it has a
// coordinator, and its worker's nocsimd_worker_* series, when it has a
// worker.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	draining := 0
	if (s.coord != nil && s.coord.Draining()) || (s.worker != nil && s.worker.Draining()) {
		draining = 1
	}
	fmt.Fprintf(w, "# HELP nocsimd_draining Whether this instance is draining (1 = refusing new submits and leases).\n# TYPE nocsimd_draining gauge\nnocsimd_draining %d\n", draining)
	if s.coord != nil {
		s.coord.WriteMetrics(w)
	}
	if s.worker != nil {
		fmt.Fprintf(w, "# HELP nocsimd_worker_shards_done Fleet shards completed by this worker.\n# TYPE nocsimd_worker_shards_done counter\nnocsimd_worker_shards_done %d\n", s.worker.ShardsDone.Load())
		fmt.Fprintf(w, "# HELP nocsimd_worker_shards_failed Fleet shards abandoned by this worker.\n# TYPE nocsimd_worker_shards_failed counter\nnocsimd_worker_shards_failed %d\n", s.worker.ShardsFailed.Load())
		fmt.Fprintf(w, "# HELP nocsimd_worker_jobs_run Fleet jobs executed by this worker.\n# TYPE nocsimd_worker_jobs_run counter\nnocsimd_worker_jobs_run %d\n", s.worker.JobsRun.Load())
		fmt.Fprintf(w, "# HELP nocsimd_worker_lease_errors Failed lease pulls (coordinator unreachable).\n# TYPE nocsimd_worker_lease_errors counter\nnocsimd_worker_lease_errors %d\n", s.worker.LeaseErrors.Load())
	}
}
