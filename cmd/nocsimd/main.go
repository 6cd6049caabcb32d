// Command nocsimd is the batch-simulation service: it accepts
// declarative campaign specs over HTTP, cuts them into shards of
// simulation jobs, runs them, and persists the records in a
// content-addressed store, so an interrupted or cancelled campaign
// resumes without recomputing finished jobs.
//
// Standalone, one process is the whole service: the fleet coordinator
// (internal/fleet) over <data>/fleet and one in-process worker running
// -workers jobs at once.
//
//	nocsimd -addr :8080 -data ./nocsimd-data
//
//	experiments -spec scenarios/table3.json -fleet http://localhost:8080
//
//	curl -s -X POST localhost:8080/fleet/campaigns -d '{"spec":{...}}'
//	curl -s localhost:8080/fleet/campaigns/<id>            # status
//	curl -s localhost:8080/fleet/campaigns/<id>/results    # records (add ?format=jsonl for raw lines)
//	curl -s localhost:8080/fleet/campaigns/<id>/summary    # merged across seeds
//	curl -s localhost:8080/fleet/campaigns/<id>/timeline   # per-job telemetry (specs with telemetry_every)
//	curl -s localhost:8080/fleet/campaigns/<id>/policy     # report of a policy_profile spec
//	curl -s -X POST localhost:8080/fleet/campaigns/<id>/cancel
//	curl -s localhost:8080/metrics                         # Prometheus counters + setup-latency histogram
//	curl -s localhost:8080/buildinfo                       # Go version, VCS revision of this binary
//	go tool pprof localhost:8080/debug/pprof/profile       # live CPU profile (-pprof=false to disable)
//
// A fleet is the same coordinator with its shards pulled by worker
// processes instead (-coordinator runs no in-process worker):
//
//	nocsimd -coordinator -addr :8080 -data ./coord-data -journal ./coord-data/fleet.journal
//	nocsimd -worker http://localhost:8080 -addr :8081
//	nocsimd -worker http://localhost:8080 -addr :8082
//
// A worker process serves only /healthz, /metrics and /buildinfo.
//
// SIGINT/SIGTERM drains gracefully: new submits are refused with 503 +
// Retry-After and no new leases are granted. The in-process worker
// finishes its running jobs (each persisted as it finishes) and starts
// no more; a worker process finishes and posts the shards it holds.
// Then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"
)

func main() {
	var cfg config
	addr := flag.String("addr", ":8080", "listen address")
	flag.StringVar(&cfg.data, "data", "nocsimd-data", "directory of the coordinator's result store (<data>/fleet)")
	flag.IntVar(&cfg.workers, "workers", 0, "concurrent jobs on this process's worker (0 = NumCPU)")
	flag.DurationVar(&cfg.jobTimeout, "job-timeout", 10*time.Minute, "per-job timeout (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 2*time.Minute, "max wait for in-flight work on shutdown")
	enablePprof := flag.Bool("pprof", true, "serve net/http/pprof profiles under /debug/pprof/")

	flag.BoolVar(&cfg.coordinator, "coordinator", false, "serve campaigns with no in-process worker: worker processes (-worker) pull the shards")
	flag.StringVar(&cfg.workerURL, "worker", "", "run only a worker, pulling shards from this coordinator URL")
	flag.IntVar(&cfg.shardSize, "shard-size", 16, "coordinator: jobs per lease")
	flag.DurationVar(&cfg.leaseTTL, "lease-ttl", 45*time.Second, "coordinator: lease expiry without renewal")
	flag.IntVar(&cfg.maxOutstanding, "max-outstanding", 100_000, "coordinator: max outstanding (queued + leased) jobs across all campaigns")
	flag.StringVar(&cfg.journal, "journal", "", "coordinator: campaign journal path for crash recovery (empty = in-memory only; a restart loses queued campaigns)")
	flag.Parse()

	s, err := newServer(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nocsimd: %v\n", err)
		os.Exit(1)
	}
	mux := s.routes()
	if *enablePprof {
		// Campaigns run long enough that profiling a live daemon is the
		// practical way to chase a hot-path regression: e.g.
		//   go tool pprof http://localhost:8080/debug/pprof/profile?seconds=30
		//   go tool pprof http://localhost:8080/debug/pprof/allocs
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	// ReadHeaderTimeout bounds how long a client may hold a connection
	// open without finishing its request headers (slowloris).
	srv := &http.Server{Addr: *addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The worker loop gets its own context: on SIGTERM it drains rather
	// than aborting its jobs; the hard cancel only fires if the drain
	// times out.
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	workerDone := s.runWorker(wctx)

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	role := "standalone"
	switch {
	case cfg.coordinator:
		role = "coordinator"
	case cfg.workerURL != "":
		role = "worker pulling from " + cfg.workerURL + ","
	}
	fmt.Printf("nocsimd: %s listening on %s, data dir %s\n", role, *addr, cfg.data)

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "nocsimd: %v\n", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		fmt.Println("nocsimd: draining in-flight jobs...")
		s.drain()
		select {
		case <-workerDone:
		case <-time.After(*drainTimeout):
			wcancel() // drain timed out; abandon the held shards (they re-lease)
			<-workerDone
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx)
		s.close()
		fmt.Println("nocsimd: stopped")
	}
}
