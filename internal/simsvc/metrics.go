package simsvc

import (
	"sync"

	"repro/internal/telemetry"
)

// newMetricsRegistry builds the Prometheus-format view of a scheduler (the
// HTTP shell adds its own live instruments). The scheduler's own
// mu-guarded counters stay the source of truth (and keep feeding the JSON
// endpoint); the registry bridges them through Counter/GaugeFunc readers
// over one Metrics snapshot per scrape, taken by a gather hook so a scrape
// never takes the scheduler lock more than once.
func newMetricsRegistry(sched *Scheduler) *telemetry.Registry {
	reg := telemetry.NewRegistry()
	telemetry.RegisterRuntimeMetrics(reg)
	telemetry.RegisterBuildInfo(reg, "simserve")

	var (
		mu   sync.Mutex
		snap Metrics
	)
	reg.OnGather(func() {
		m := sched.Metrics()
		mu.Lock()
		snap = m
		mu.Unlock()
	})
	read := func(f func(Metrics) float64) func() float64 {
		return func() float64 {
			mu.Lock()
			defer mu.Unlock()
			return f(snap)
		}
	}

	reg.GaugeFunc("simsvc_queue_depth", "Jobs waiting in the FIFO queue.",
		read(func(m Metrics) float64 { return float64(m.QueueDepth) }))
	reg.GaugeFunc("simsvc_queue_capacity", "FIFO queue depth limit.",
		read(func(m Metrics) float64 { return float64(m.QueueCap) }))
	reg.GaugeFunc("simsvc_workers", "Simulation worker-pool size.",
		read(func(m Metrics) float64 { return float64(m.Workers) }))
	reg.GaugeFunc("simsvc_jobs_running", "Jobs currently executing.",
		read(func(m Metrics) float64 { return float64(m.Running) }))
	reg.GaugeFunc("simsvc_draining", "1 while graceful shutdown is in progress.",
		read(func(m Metrics) float64 {
			if m.Draining {
				return 1
			}
			return 0
		}))

	reg.CounterFunc("simsvc_jobs_accepted_total", "Jobs admitted (queued or cache-answered).",
		read(func(m Metrics) float64 { return float64(m.JobsAccepted) }))
	reg.CounterFunc("simsvc_jobs_done_total", "Jobs finished successfully.",
		read(func(m Metrics) float64 { return float64(m.JobsDone) }))
	reg.CounterFunc("simsvc_jobs_failed_total", "Jobs finished in failure.",
		read(func(m Metrics) float64 { return float64(m.JobsFailed) }))

	reg.CounterFunc("simsvc_cache_hits_total", "Submissions answered from the result cache.",
		read(func(m Metrics) float64 { return float64(m.Cache.Hits) }))
	reg.CounterFunc("simsvc_cache_misses_total", "Submissions that had to queue.",
		read(func(m Metrics) float64 { return float64(m.Cache.Misses) }))
	reg.CounterFunc("simsvc_cache_coalesced_total", "Queued jobs answered by an identical run.",
		read(func(m Metrics) float64 { return float64(m.Cache.Coalesced) }))
	reg.CounterFunc("simsvc_cache_executed_total", "Real simulations executed.",
		read(func(m Metrics) float64 { return float64(m.Cache.Executed) }))
	reg.GaugeFunc("simsvc_ready", "1 while /readyz reports ready (not draining, queue not saturated).",
		func() float64 {
			if ok, _ := sched.Ready(); ok {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("simsvc_cache_entries", "Result payloads held in the in-memory LRU.",
		read(func(m Metrics) float64 { return float64(m.Cache.Entries) }))

	lat := reg.GaugeVec("simsvc_job_latency_us",
		"Job wall latency (queue pickup to completion) percentiles, microseconds.",
		"quantile")
	p50, p95, p99, pmax := lat.With("0.5"), lat.With("0.95"), lat.With("0.99"), lat.With("1.0")
	reg.OnGather(func() {
		mu.Lock()
		m := snap
		mu.Unlock()
		p50.Set(float64(m.JobLatencyUS.P50))
		p95.Set(float64(m.JobLatencyUS.P95))
		p99.Set(float64(m.JobLatencyUS.P99))
		pmax.Set(float64(m.JobLatencyUS.Max))
	})
	reg.CounterFunc("simsvc_job_latency_observations_total",
		"Jobs measured into the latency histogram.",
		read(func(m Metrics) float64 { return float64(m.JobLatencyUS.Count) }))

	return reg
}
