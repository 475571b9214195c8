package cluster

import "repro/internal/telemetry"

// ringMetrics are the coordinator's live instruments.
type ringMetrics struct {
	proxied            *telemetry.CounterVec // backend, status/error
	probes             *telemetry.CounterVec // backend, ok/fail
	breakerTransitions *telemetry.CounterVec // backend, to-state
	hedges             *telemetry.Counter
	hedgeWins          *telemetry.Counter
	reroutes           *telemetry.Counter
	retrySleeps        *telemetry.Counter
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
		resurrected: reg.Counter("simring_jobs_resurrected_total",
			"Jobs replayed onto another shard after their backend was lost."),
	}

	// Breaker positions as a gauge per backend (0 closed, 1 open),
	// refreshed at scrape time.
	state := reg.GaugeVec("simring_breaker_state",
		"Circuit-breaker position per backend: 0 closed, 1 open.",
		"backend")
	reg.OnGather(func() {
		for _, b := range c.backends {
			state.With(b.url).Set(float64(b.breaker.State()))
		}
	})
	reg.GaugeFunc("simring_live_backends", "Backends whose breaker is not open.",
		func() float64 { return float64(c.LiveBackends()) })
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
