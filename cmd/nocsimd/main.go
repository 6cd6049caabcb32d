// Command nocsimd is the batch-simulation service: it accepts
// declarative campaign specs over HTTP, expands them into simulation
// jobs, runs them on the campaign engine's bounded worker pool, and
// persists results as JSONL so interrupted campaigns resume without
// recomputing finished jobs.
//
//	nocsimd -addr :8080 -data ./nocsimd-data
//
//	curl -s -X POST localhost:8080/campaigns -d @examples/specs/fig4-quick.json
//	curl -s localhost:8080/campaigns/<id>            # status + counters
//	curl -s localhost:8080/campaigns/<id>/results    # records (add ?format=jsonl for raw lines)
//	curl -s localhost:8080/campaigns/<id>/summary    # merged across seeds
//	curl -s localhost:8080/campaigns/<id>/timeline   # per-job telemetry (specs with telemetry_every)
//	curl -s -X POST localhost:8080/campaigns/<id>/cancel
//	curl -s localhost:8080/metrics                   # Prometheus counters + setup-latency histogram
//	curl -s localhost:8080/buildinfo                 # Go version, VCS revision of this binary
//	go tool pprof localhost:8080/debug/pprof/profile # live CPU profile (-pprof=false to disable)
//
// Fleet modes turn nocsimd instances into a distributed fabric
// (see internal/fleet):
//
//	nocsimd -coordinator -addr :8080 -data ./coord-data -journal ./coord-data/fleet.journal
//	nocsimd -worker http://localhost:8080 -addr :8081
//	nocsimd -worker http://localhost:8080 -addr :8082
//
//	curl -s -X POST localhost:8080/fleet/campaigns -d '{"tenant":"me","spec":{...}}'
//	curl -s localhost:8080/fleet/campaigns/<id>/summary
//
// SIGINT/SIGTERM drains gracefully: new submits are refused with 503 +
// Retry-After, no new jobs or leases start, in-flight work finishes and
// persists, then the process exits.
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
	"path/filepath"
	"syscall"
	"time"

	"tdmnoc/internal/campaign"
	"tdmnoc/internal/fleet"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	data := flag.String("data", "nocsimd-data", "directory for campaign result stores (JSONL)")
	workers := flag.Int("workers", 0, "concurrent jobs per campaign (0 = NumCPU)")
	jobTimeout := flag.Duration("job-timeout", 10*time.Minute, "per-job timeout (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 2*time.Minute, "max wait for in-flight jobs on shutdown")
	enablePprof := flag.Bool("pprof", true, "serve net/http/pprof profiles under /debug/pprof/")

	coordinator := flag.Bool("coordinator", false, "serve the fleet control plane under /fleet/ (sharded store in <data>/fleet)")
	workerURL := flag.String("worker", "", "run as a fleet worker pulling shards from this coordinator URL")
	shardSize := flag.Int("shard-size", 16, "coordinator: jobs per lease")
	leaseTTL := flag.Duration("lease-ttl", 45*time.Second, "coordinator: lease expiry without renewal")
	tenantQuota := flag.Int("tenant-quota", 100_000, "coordinator: max outstanding jobs per tenant")
	journal := flag.String("journal", "", "coordinator: write-ahead journal path for crash recovery (empty = in-memory only; a restart loses queued campaigns)")
	flag.Parse()

	if err := os.MkdirAll(*data, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "nocsimd: %v\n", err)
		os.Exit(1)
	}

	s := newServer(*data, *workers, *jobTimeout)

	var store *campaign.ShardedStore
	if *coordinator {
		var err error
		store, err = campaign.OpenShardedStore(filepath.Join(*data, "fleet"))
		if err != nil {
			fmt.Fprintf(os.Stderr, "nocsimd: %v\n", err)
			os.Exit(1)
		}
		s.coord, err = fleet.NewCoordinator(fleet.Options{
			Store:       store,
			ShardSize:   *shardSize,
			LeaseTTL:    *leaseTTL,
			TenantQuota: *tenantQuota,
			Journal:     *journal,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "nocsimd: %v\n", err)
			os.Exit(1)
		}
		if *journal != "" {
			if n := s.coord.Recovered(); n > 0 {
				fmt.Printf("nocsimd: journal %s: replayed %d records\n", *journal, n)
			}
			// A replayed drain record leaves the coordinator draining; a
			// deliberately restarted service should serve.
			s.coord.Resume()
		}
	}
	if *workerURL != "" {
		w, err := fleet.NewWorker(fleet.WorkerOptions{
			Coordinator: *workerURL,
			Workers:     *workers,
			JobTimeout:  *jobTimeout,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "nocsimd: %v\n", err)
			os.Exit(1)
		}
		s.fworker = w
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

	// The worker loop gets its own context: on SIGTERM it drains (Drain
	// lets the in-flight shard finish and post) rather than aborting
	// mid-shard; the hard cancel only fires if the drain times out.
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	workerDone := make(chan struct{})
	if s.fworker != nil {
		go func() {
			defer close(workerDone)
			s.fworker.Run(wctx)
		}()
		fmt.Printf("nocsimd: worker pulling from %s\n", *workerURL)
	} else {
		close(workerDone)
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	role := "standalone"
	if *coordinator {
		role = "coordinator"
	} else if *workerURL != "" {
		role = "worker"
	}
	fmt.Printf("nocsimd: %s listening on %s, data dir %s\n", role, *addr, *data)

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "nocsimd: %v\n", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		fmt.Println("nocsimd: draining in-flight jobs...")
		s.drainAll(*drainTimeout)
		select {
		case <-workerDone:
		case <-time.After(*drainTimeout):
			wcancel() // drain timed out; abandon the shard (it re-leases)
		}
		if s.coord != nil {
			s.coord.WaitCompactions()
			s.coord.Close()
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx)
		if store != nil {
			store.Close()
		}
		fmt.Println("nocsimd: stopped")
	}
}
