// Command simserve runs the simulator as a long-lived service: an HTTP
// JSON API in front of a bounded job scheduler and a content-addressed
// result cache. Because simulations are bit-deterministic functions of
// their specification, every result is cached by spec hash — resubmitting
// any configuration ever computed is answered without simulating.
//
// Usage:
//
//	simserve -addr :8080 -workers 4 -queue 64 -cache-dir simcache
//
// Endpoints:
//
//	POST /v1/runs      submit a run spec (429 when the queue is full)
//	GET  /v1/runs/{id} poll a job; the result rides along once done
//	POST /v1/sweeps    expand a load-rate range into one job per rate
//	GET  /metrics      Prometheus text exposition (JSON via Accept header)
//	GET  /metrics.json queue depth, cache counters, latency percentiles
//	GET  /healthz      liveness (200 while the process serves at all)
//	GET  /readyz       readiness (503 while draining or queue-saturated)
//
// A shard answers only from its own cache and simulates every miss itself:
// it never calls another shard, so one hung shard cannot stall the rest.
// cmd/simring is the coordinator that fronts a set of such shards.
//
// With -debug-addr, net/http/pprof is served on a separate private
// listener.
//
// SIGINT/SIGTERM drain gracefully: the listener stops, accepted jobs
// finish (up to -drain-timeout), and new submissions are rejected.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/simsvc"
	"repro/internal/telemetry"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", runtime.GOMAXPROCS(0), "simulation worker-pool size")
		queueDepth   = flag.Int("queue", 64, "job queue depth limit (submissions beyond it get HTTP 429)")
		cacheEntries = flag.Int("cache", 256, "in-memory result-cache entries (LRU)")
		cacheDir     = flag.String("cache-dir", "", "on-disk result store directory (empty = memory only)")
		jobTimeout   = flag.Duration("job-timeout", 0, "per-job simulation wall-time limit (0 = unbounded)")
		drainTimeout = flag.Duration("drain-timeout", time.Minute, "graceful-shutdown budget for accepted jobs")
		tracePath    = flag.String("trace", "", "append every job's simulation events and one record per finished job as JSONL to this file (every line names its job)")
		debugAddr    = flag.String("debug-addr", "", "serve net/http/pprof on this address (empty = off; keep it private)")
		version      = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(telemetry.VersionString("simserve"))
		return
	}
	if *workers < 1 {
		fatal(fmt.Errorf("-workers must be at least 1, got %d", *workers))
	}
	if *queueDepth < 1 {
		fatal(fmt.Errorf("-queue must be at least 1, got %d", *queueDepth))
	}

	store, err := simsvc.NewStore(*cacheEntries, *cacheDir)
	fatal(err)

	// One trace file for every worker: events from overlapping jobs
	// interleave, and every line names its job.
	var trace *simsvc.TraceWriter
	if *tracePath != "" {
		f, err := os.OpenFile(*tracePath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		fatal(err)
		trace = simsvc.NewTraceWriter(f)
	}

	sched := simsvc.NewScheduler(simsvc.SchedConfig{
		Workers:    *workers,
		QueueDepth: *queueDepth,
		JobTimeout: *jobTimeout,
		Store:      store,
		Trace:      trace,
	})
	srv := &http.Server{
		Addr:    *addr,
		Handler: simsvc.NewServer(sched),
		// A client that opens a connection and trickles (or never sends)
		// headers would otherwise hold a server goroutine forever.
		ReadHeaderTimeout: 10 * time.Second,
	}

	// The pprof surface is opt-in and on its own listener so profiling
	// endpoints are never reachable through the public API address.
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dsrv := &http.Server{Addr: *debugAddr, Handler: dmux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := dsrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("simserve: debug listener: %v", err)
			}
		}()
		log.Printf("simserve: pprof on %s/debug/pprof/", *debugAddr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("simserve: listening on %s (%d workers, queue %d, cache %d%s)",
		*addr, *workers, *queueDepth, *cacheEntries, diskNote(*cacheDir))

	select {
	case err := <-errCh:
		fatal(err)
	case <-ctx.Done():
	}

	// Graceful drain: stop the listener, then let accepted jobs finish.
	log.Printf("simserve: shutdown signal; draining (budget %s)", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("simserve: http shutdown: %v", err)
	}
	if err := sched.Drain(drainCtx); err != nil {
		log.Printf("simserve: drain incomplete: %v", err)
	}
	if trace != nil {
		if err := trace.Close(); err != nil {
			log.Printf("simserve: trace close: %v", err)
		}
	}
	m := sched.Metrics()
	log.Printf("simserve: done (%d jobs accepted, %d done, %d failed, cache %d hits / %d misses)",
		m.JobsAccepted, m.JobsDone, m.JobsFailed, m.Cache.Hits, m.Cache.Misses)
}

func diskNote(dir string) string {
	if dir == "" {
		return ""
	}
	return ", disk " + dir
}

func fatal(err error) {
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "simserve:", err)
		os.Exit(1)
	}
}
