package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"time"

	"repro/internal/simsvc"
	"repro/internal/telemetry"
)

// ringMetrics are the coordinator's live instruments.
type ringMetrics struct {
	proxied            *telemetry.CounterVec // backend, status/error
	probes             *telemetry.CounterVec // backend, ok/fail
	breakerTransitions *telemetry.CounterVec // backend, to-state
	hedges             *telemetry.Counter
	hedgeWins          *telemetry.Counter
	reroutes           *telemetry.Counter
	retrySleeps        *telemetry.Counter
	degradedEnqueued   *telemetry.Counter
	degradedFlushed    *telemetry.Counter
	resurrected        *telemetry.Counter
}

func newRingMetrics(c *Coordinator) (*telemetry.Registry, *ringMetrics) {
	reg := telemetry.NewRegistry()
	telemetry.RegisterRuntimeMetrics(reg)
	telemetry.RegisterBuildInfo(reg, "simring")

	m := &ringMetrics{
		proxied: reg.CounterVec("simring_proxied_total",
			"Requests proxied to backends, by backend and status (or 'error').",
			"backend", "status"),
		probes: reg.CounterVec("simring_probes_total",
			"Health probes, by backend and outcome.", "backend", "outcome"),
		breakerTransitions: reg.CounterVec("simring_breaker_transitions_total",
			"Circuit-breaker state transitions, by backend and target state.",
			"backend", "to"),
		hedges: reg.Counter("simring_hedges_total",
			"Hedged requests fired after the p95-derived delay."),
		hedgeWins: reg.Counter("simring_hedge_wins_total",
			"Hedged requests whose second leg answered first."),
		reroutes: reg.Counter("simring_reroutes_total",
			"Submissions moved past a backend (breaker open, 429/503, or transport failure)."),
		retrySleeps: reg.Counter("simring_retry_sleeps_total",
			"Inter-pass backoff sleeps during submission routing."),
		degradedEnqueued: reg.Counter("simring_degraded_enqueued_total",
			"Submissions queued locally because every replica was unavailable."),
		degradedFlushed: reg.Counter("simring_degraded_flushed_total",
			"Degraded-queue jobs later placed on a recovered backend."),
		resurrected: reg.Counter("simring_jobs_resurrected_total",
			"Jobs replayed onto another shard after their backend was lost."),
	}

	// Breaker positions as a gauge per backend (0 closed, 1 open, 2
	// half-open), refreshed at scrape time.
	state := reg.GaugeVec("simring_breaker_state",
		"Circuit-breaker position per backend: 0 closed, 1 open, 2 half-open.",
		"backend")
	reg.OnGather(func() {
		for _, b := range c.backends {
			state.With(b.url).Set(float64(b.breaker.State()))
		}
	})
	reg.GaugeFunc("simring_live_backends", "Backends whose breaker is not open.",
		func() float64 { return float64(c.LiveBackends()) })
	reg.GaugeFunc("simring_degraded_queue_depth", "Jobs waiting in the degraded-mode local queue.",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(len(c.pending))
		})
	reg.GaugeFunc("simring_hedge_delay_seconds", "Current p95-derived hedge delay.",
		func() float64 { return c.hedgeDelay().Seconds() })
	reg.GaugeFunc("simring_draining", "1 while graceful shutdown is in progress.",
		func() float64 {
			if c.Draining() {
				return 1
			}
			return 0
		})
	return reg, m
}

// PeerFiller builds a simsvc.SchedConfig.PeerFill that asks each peer's
// content-addressed GET /v1/runs/{hash} in order and returns the first hit.
// simserve backends use it for ring-successor cache fill-over: on a local
// miss the owning shard checks its peers before paying for a simulation,
// which is what makes a re-submitted spec a cross-shard cache hit after
// rebalancing or failover.
func PeerFiller(peers []string, timeout time.Duration) func(ctx context.Context, hash string) ([]byte, bool) {
	if len(peers) == 0 {
		return nil
	}
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	client := &http.Client{Timeout: timeout}
	return func(ctx context.Context, hash string) ([]byte, bool) {
		for _, peer := range peers {
			fctx, cancel := context.WithTimeout(ctx, timeout)
			payload, ok := fetchCached(fctx, client, peer, hash)
			cancel()
			if ok {
				return payload, true
			}
			if ctx.Err() != nil {
				return nil, false
			}
		}
		return nil, false
	}
}

// fetchCached asks one peer for one hash.
func fetchCached(ctx context.Context, client *http.Client, peer, hash string) ([]byte, bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/v1/runs/"+hash, nil)
	if err != nil {
		return nil, false
	}
	req.Header.Set("X-Request-ID", telemetry.RequestID(ctx))
	resp, err := client.Do(req)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, false
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, false
	}
	var cv simsvc.CachedView
	if err := json.Unmarshal(body, &cv); err != nil || len(cv.Result) == 0 {
		return nil, false
	}
	return cv.Result, true
}
