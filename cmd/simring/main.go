// Command simring fronts N simserve backends with one consistent-hash
// coordinator: every spec routes to the shard owning its hash, so each
// result is computed once cluster-wide and every resubmission — through
// any path — is a cache hit. The coordinator serves the same API as a
// single simserve; clients cannot tell one shard from a cluster.
//
// Usage:
//
//	simring -addr :9000 -backends http://127.0.0.1:9001,http://127.0.0.1:9002
//
// Robustness machinery (see internal/cluster):
//
//   - a per-backend two-state circuit breaker: the first failed probe or
//     proxied call opens it, and only the next successful probe closes it;
//     open backends are routed around and not polled, and probes keep
//     running every interval in both states
//   - failed submissions retry on the next ring replica with capped
//     exponential backoff + jitter, honoring backend Retry-After hints
//   - hedged requests: if the owner has not answered within the observed
//     p95 submit latency, the same request fires at the ring successor
//     and the first usable answer wins (safe: results are
//     content-addressed, both answers are byte-identical)
//   - with no replica of a key willing to take it, a submission answers as
//     one full shard would: 429 if every replica said 429, else 503, with
//     the largest Retry-After a backend sent; an accepted job whose shards
//     are all down answers queued and is placed again by the next poll
//
// Endpoints: the simserve API (/v1/runs, /v1/sweeps, /metrics, /healthz,
// /readyz) plus GET /v1/cluster (ring topology, breaker states, jobs
// tracked).
//
// SIGINT/SIGTERM drain gracefully: new submissions get 503 and in-flight
// proxied requests finish (up to -drain-timeout).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/telemetry"
)

func main() {
	var (
		addr          = flag.String("addr", ":9000", "listen address")
		backendList   = flag.String("backends", "", "comma-separated simserve base URLs (required)")
		replicas      = flag.Int("replicas", 3, "failover/hedge chain length per key (capped at the backend count)")
		probeInterval = flag.Duration("probe-interval", 500*time.Millisecond, "health-probe period per backend")
		maxPasses     = flag.Int("max-passes", 2, "full passes over a key's replica chain before answering 429/503")
		hedgeMin      = flag.Duration("hedge-min", 10*time.Millisecond, "lower clamp on the p95-derived hedge delay")
		hedgeMax      = flag.Duration("hedge-max", time.Second, "upper clamp on the p95-derived hedge delay")
		noHedge       = flag.Bool("no-hedge", false, "disable hedged requests")
		clientTimeout = flag.Duration("client-timeout", 30*time.Second, "per-proxied-request timeout")
		drainTimeout  = flag.Duration("drain-timeout", time.Minute, "graceful-shutdown budget")
		version       = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(telemetry.VersionString("simring"))
		return
	}
	if *backendList == "" {
		fatal(errors.New("-backends is required (comma-separated simserve URLs)"))
	}
	backends, err := cluster.ParseURLList(*backendList)
	if err != nil {
		fatal(fmt.Errorf("-backends: %w", err))
	}

	coord, err := cluster.New(cluster.Config{
		Backends:      backends,
		Replicas:      *replicas,
		ProbeInterval: *probeInterval,
		MaxPasses:     *maxPasses,
		HedgeMin:      *hedgeMin,
		HedgeMax:      *hedgeMax,
		DisableHedge:  *noHedge,
		Client:        &http.Client{Timeout: *clientTimeout},
	})
	fatal(err)

	srv := &http.Server{
		Addr:              *addr,
		Handler:           coord,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("simring: listening on %s, %d backends, %d replicas per key",
		*addr, len(backends), *replicas)

	select {
	case err := <-errCh:
		fatal(err)
	case <-ctx.Done():
	}

	// Graceful drain: refuse new submissions, let in-flight proxied requests
	// finish.
	log.Printf("simring: shutdown signal; draining (budget %s)", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := coord.Drain(drainCtx); err != nil {
		log.Printf("simring: %v", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("simring: http shutdown: %v", err)
	}
	log.Printf("simring: done")
}

func fatal(err error) {
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "simring:", err)
		os.Exit(1)
	}
}
