// Command gesmcd is the gesmc sampling daemon: an HTTP server that
// draws ensembles of degree-preserving random graphs on request,
// multiplexing all requests over a bounded worker budget and a pool of
// compiled sampling engines (persistent worker gangs are reused across
// requests instead of rebuilt per call).
//
// API (JSON formats in package gesmc/wire):
//
//	POST /v1/sample   sample an ensemble; the response is NDJSON, one
//	                  line per sample, streamed as produced
//	GET  /v1/healthz  liveness
//	GET  /v1/metrics  request/queue/pool/throughput counters (JSON; with
//	                  "Accept: text/plain", Prometheus text exposition
//	                  including queue-wait and superstep-phase histograms)
//	GET  /v1/trace    span dump of one request trace (?id= from any
//	                  streamed line's stats.trace_id)
//
// -pprof additionally mounts net/http/pprof under /debug/pprof/; -log
// controls the structured request log (trace IDs included).
//
// Example:
//
//	gesmcd -addr 127.0.0.1:8742 &
//	curl -s http://127.0.0.1:8742/v1/sample -d '{
//	        "degrees": [3,3,2,2,2,1,1], "samples": 100, "seed": 7,
//	        "algorithm": "ParGlobalES"}' | jq .stats.supersteps
//
// With -coordinator, gesmcd serves the same API as the front tier of a
// sharded cluster instead of sampling itself: requests are
// consistent-hashed by engine-pool key onto the -backends daemons (so
// pooled burned-in engines are reused cluster-wide), hot keys are
// replicated across -replicate shards, dead backends are health-checked
// out of the ring, and overloaded owners spill to the least-loaded
// live shard:
//
//	gesmcd -addr :8742 &           # shard A
//	gesmcd -addr :8743 &           # shard B
//	gesmcd -addr :8740 -coordinator -backends 127.0.0.1:8742,127.0.0.1:8743 &
//	curl -s http://127.0.0.1:8740/v1/sample -d '{"degrees":[3,2,2,1],"samples":4,"seed":7}' \
//	        | jq .stats.backend
//
// On SIGINT/SIGTERM the daemon stops admitting work, drains in-flight
// streams (bounded by -drain), and parks every pooled worker gang.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"gesmc/internal/cluster"
	"gesmc/internal/faultinject"
	"gesmc/internal/service"
)

// readHeaderTimeout bounds how long a client may take to send its
// request headers, so connections that stall before the request line
// completes (slowloris) cannot hold server goroutines indefinitely.
// Request bodies and streamed responses are not affected: an ensemble
// stream may legitimately run for minutes.
const readHeaderTimeout = 10 * time.Second

func main() {
	var (
		addr   = flag.String("addr", "127.0.0.1:8742", "listen address (host:port; port 0 picks a free port)")
		id     = flag.String("id", "", "backend identity stamped on streamed lines and metrics (default: the resolved listen address)")
		budget = flag.Int("budget", runtime.GOMAXPROCS(0), "global worker budget shared by all jobs")
		queue  = flag.Int("queue", 64, "admission queue depth; arrivals beyond it get HTTP 429")
		pool   = flag.Int("pool", 8, "engine pool capacity (0 disables pooling)")
		drain  = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain timeout")

		coordinator = flag.Bool("coordinator", false, "run as a cluster coordinator instead of a sampling shard")
		backends    = flag.String("backends", "", "comma-separated backend URLs (coordinator mode)")
		replicate   = flag.Int("replicate", 2, "replicas serving one hot key (coordinator mode)")
		hot         = flag.Int64("hot", 16, "requests per key before it is promoted to replicated service (coordinator mode)")
		health      = flag.Duration("health", 2*time.Second, "backend health-check interval (coordinator mode)")

		faults = flag.String("faults", "", "arm chaos fault points, e.g. server.stream:cut:after=5:hits=1,server.health:flap (testing only)")

		pprofOn     = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ for live profiling")
		logLevel    = flag.String("log", "info", "structured request-log level: debug, info, warn, error, or off")
		noTelemetry = flag.Bool("no-telemetry", false, "disable tracing, latency histograms, and Prometheus exposition")
	)
	flag.Parse()

	// Structured request logging (slog, text format, stderr): one line
	// per request with its trace ID, plus failover and breaker-
	// transition events in coordinator mode.
	var logger *slog.Logger
	if *logLevel != "off" {
		var lv slog.Level
		if err := lv.UnmarshalText([]byte(*logLevel)); err != nil {
			log.Fatalf("gesmcd: -log: %v", err)
		}
		logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lv}))
	}

	if *faults != "" {
		fs, err := faultinject.ParseSpec(*faults)
		if err != nil {
			log.Fatalf("gesmcd: %v", err)
		}
		for _, f := range fs {
			faultinject.Enable(f)
		}
		log.Printf("gesmcd: %d fault point(s) armed: %s", len(fs), *faults)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("gesmcd: %v", err)
	}
	if *id == "" {
		*id = ln.Addr().String()
	}

	var handler http.Handler
	var shutdownTier func(ctx context.Context)
	if *coordinator {
		var shards []cluster.ShardConfig
		for _, u := range strings.Split(*backends, ",") {
			if u = strings.TrimSpace(u); u != "" {
				shards = append(shards, cluster.ShardConfig{URL: u})
			}
		}
		coord, err := cluster.New(cluster.Config{
			Shards:         shards,
			ID:             *id,
			Replication:    *replicate,
			HotThreshold:   *hot,
			HealthInterval: *health,
			NoTelemetry:    *noTelemetry,
			Logger:         logger,
		})
		if err != nil {
			log.Fatalf("gesmcd: %v", err)
		}
		// One synchronous probe round so the first requests already
		// route around backends that were down at boot.
		coord.CheckHealth(context.Background())
		handler = service.NewBackendHandler(coord)
		shutdownTier = func(context.Context) { coord.Close() }
		// The "listening on" line is load-bearing: scripts (CI smoke,
		// the examples) scrape the resolved address when -addr used
		// port 0.
		fmt.Printf("gesmcd: listening on %s (coordinator over %d backends, replicate=%d hot=%d)\n",
			ln.Addr(), len(shards), *replicate, *hot)
	} else {
		svc := service.New(service.Config{
			ID:           *id,
			WorkerBudget: *budget,
			QueueLimit:   *queue,
			PoolCapacity: *pool,
			NoPooling:    *pool == 0,
			NoTelemetry:  *noTelemetry,
			Logger:       logger,
		})
		handler = service.NewHandler(svc)
		shutdownTier = func(ctx context.Context) {
			if err := svc.Shutdown(ctx); err != nil && !errors.Is(err, context.Canceled) {
				log.Printf("gesmcd: job drain: %v", err)
			}
		}
		fmt.Printf("gesmcd: listening on %s (budget=%d queue=%d pool=%d)\n",
			ln.Addr(), *budget, *queue, *pool)
	}

	if *pprofOn {
		// Mount the profiling endpoints beside the API: CPU/heap/
		// goroutine profiles on a live daemon, no restart needed.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}

	srv := &http.Server{Handler: handler, ReadHeaderTimeout: readHeaderTimeout}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		log.Printf("gesmcd: signal received, draining (timeout %v)", *drain)
	case err := <-errCh:
		log.Fatalf("gesmcd: %v", err)
	}

	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Stop accepting connections and wait for handlers, then drain the
	// job layer (parking every pooled gang) or stop the coordinator's
	// health loop.
	if err := srv.Shutdown(dctx); err != nil {
		log.Printf("gesmcd: http shutdown: %v", err)
	}
	shutdownTier(dctx)
	log.Printf("gesmcd: bye")
}
