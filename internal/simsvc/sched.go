package simsvc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Submission errors the HTTP layer maps onto status codes.
var (
	// ErrQueueFull is returned when the FIFO queue is at its depth limit;
	// the API surfaces it as HTTP 429 so clients back off.
	ErrQueueFull = errors.New("simsvc: job queue full")
	// ErrDraining is returned once shutdown has begun; accepted jobs still
	// finish but no new work is admitted.
	ErrDraining = errors.New("simsvc: scheduler draining")
)

// Status is a job's lifecycle state.
type Status string

const (
	StatusQueued  Status = "queued"
	StatusRunning Status = "running"
	StatusDone    Status = "done"
	StatusFailed  Status = "failed"
)

// SchedConfig parameterizes a Scheduler.
type SchedConfig struct {
	// Workers is the simulation worker-pool size (default 1).
	Workers int
	// QueueDepth is the hard FIFO depth limit (default 16). Submissions
	// beyond it fail with ErrQueueFull.
	QueueDepth int
	// JobTimeout bounds each job's simulation wall time (0 = unbounded);
	// a timed-out job fails with context.DeadlineExceeded.
	JobTimeout time.Duration
	// Store is the result cache (required).
	Store *Store
	// Trace, when non-nil, receives every executed job's simulation events
	// stamped with the job's ID, and one job record per finished job.
	Trace *TraceWriter
	// Exec overrides the job executor (nil = Execute). Tests use it to
	// exercise the panic-recovery and failure paths without a simulation.
	Exec func(ctx context.Context, spec RunSpec, bus *obs.Bus) ([]byte, error)
}

// RetryDelay is the capped exponential backoff with jitter that the cluster
// coordinator's placement passes sleep on: base doubled per attempt (attempt
// 0 = base) up to limit, plus uniform jitter of up to half that, so callers
// that failed together spread out instead of stampeding back in lockstep.
func RetryDelay(base, limit time.Duration, attempt int) time.Duration {
	d := base << uint(attempt)
	if d > limit || d <= 0 {
		d = limit
	}
	return d + time.Duration(rand.Int63n(int64(d)/2+1))
}

// JobTableCap bounds the job table. Past it the oldest finished jobs are
// forgotten (their IDs answer 404; the result still answers by spec hash from
// the cache); queued and running jobs are never evicted. The cluster
// coordinator applies the same cap one hop up, so a shard remembers a job as
// long as its coordinator does. A shard's 404 for a job it forgot leaves the
// coordinator's breaker closed (only transport errors and 5xx open it); the
// coordinator then fetches the result by hash or replays the job.
const JobTableCap = 16384

// job is a queued or running job; a finished one is a record (table.go). Its
// seq and id are written under Scheduler.mu as it is registered, which a
// worker takes before reading them, status under it too, and the rest before
// the job is enqueued.
type job struct {
	seq   int64
	id    string
	hash  string
	spec  RunSpec
	reqID string
	// spans accumulates the job's phase timings (queue wait, cache lookup,
	// coalesce, execute, encode); the collector is internally locked, so
	// workers and view snapshots need no extra coordination.
	spans    *telemetry.Spans
	enqueued time.Time

	status Status // guarded by Scheduler.mu
}

// JobView is the API-facing snapshot of a job.
type JobView struct {
	ID       string  `json:"id"`
	SpecHash string  `json:"spec_hash"`
	Spec     RunSpec `json:"spec"`
	Status   Status  `json:"status"`
	// Cached reports that the job was answered from the result store or
	// coalesced onto an identical in-flight run instead of simulating.
	Cached bool   `json:"cached"`
	Error  string `json:"error,omitempty"`
	// RequestID identifies the HTTP request that submitted the job (from
	// the X-Request-ID header or minted by the server); empty for jobs
	// submitted outside an identified request.
	RequestID string `json:"request_id,omitempty"`
	// Spans are the job's recorded phase timings: queue wait, cache
	// lookup, singleflight coalesce, execute, encode.
	Spans []telemetry.Span `json:"spans,omitempty"`
	// Result is the cached payload (a Result object), present once done. It
	// is the last field: Server writes it after what the encoder makes of
	// the others.
	Result json.RawMessage `json:"result,omitempty"`

	// rendered is Result as a reply carries it, and echo Spec, when the
	// store had them.
	rendered, echo []byte
}

// Scheduler owns the worker pool, the bounded FIFO queue, and the job
// table. It layers on Execute for running a spec and on Store +
// flightGroup for deduplication.
type Scheduler struct {
	cfg    SchedConfig
	queue  chan *job
	flight flightGroup

	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	mu       sync.Mutex
	live     map[int64]*job // queued and running jobs, by sequence number
	finished jobTable
	seq      int64
	draining bool
	running  int
	accepted int64
	done     int64
	failed   int64
	hits     int64
	misses   int64
	coalesce int64
	executed int64
	latency  *stats.LatencyHist
}

// NewScheduler builds and starts a scheduler.
func NewScheduler(cfg SchedConfig) *Scheduler {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 16
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Scheduler{
		cfg:     cfg,
		queue:   make(chan *job, cfg.QueueDepth),
		baseCtx: ctx,
		cancel:  cancel,
		live:    make(map[int64]*job),
		latency: &stats.LatencyHist{},
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Submit normalizes and admits one spec. A spec whose result is already
// cached completes immediately without consuming a queue slot; otherwise
// the job joins the FIFO queue, failing fast with ErrQueueFull at the
// depth limit or ErrDraining during shutdown. The request ID stamped on
// ctx (if any) is carried onto the job for trace correlation; ctx does not
// otherwise govern the job, whose execution outlives the request.
func (s *Scheduler) Submit(ctx context.Context, spec RunSpec) (JobView, error) {
	norm, err := spec.Normalized()
	if err != nil {
		return JobView{}, err
	}
	var digits [16]byte
	key := norm.appendHash(digits[:0])
	reqID := telemetry.RequestID(ctx)

	lookup := time.Now()
	if e, ok := s.cfg.Store.lookup(key, &norm); ok {
		r := record{reqID: reqID, ent: e, cached: true}
		r.addSpan(cacheLookup, time.Since(lookup).Microseconds())
		s.mu.Lock()
		s.hits++
		s.done++
		r.seq = s.register()
		v := s.finished.push(r).view()
		s.mu.Unlock()
		s.cfg.Trace.job(v)
		return v, nil
	}
	j := &job{hash: string(key), spec: norm, reqID: reqID, spans: telemetry.NewSpans(), enqueued: lookup}
	j.spans.Add("cache-lookup", time.Since(lookup))

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return JobView{}, ErrDraining
	}
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		return JobView{}, ErrQueueFull
	}
	s.misses++
	j.seq = s.register()
	j.id = jobID(j.seq)
	j.status = StatusQueued
	s.live[j.seq] = j
	v := j.view()
	s.mu.Unlock()
	return v, nil
}

// register numbers a job entering the table, first forgetting the oldest
// finished jobs while the table, this job included, would hold more than
// JobTableCap; callers hold s.mu.
func (s *Scheduler) register() int64 {
	for len(s.live)+s.finished.n >= JobTableCap && s.finished.n > 0 {
		s.finished.evictOldest()
	}
	s.seq++
	s.accepted++
	return s.seq
}

// Ready reports whether the scheduler can usefully accept new work right
// now, with a human-readable reason when it cannot. Distinct from liveness:
// a draining or queue-saturated scheduler is alive (healthz stays 200) but
// not ready — a cluster coordinator uses this to stop routing to it instead
// of burning retries on 429/503 responses.
func (s *Scheduler) Ready() (bool, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false, "draining"
	}
	if len(s.queue) >= s.cfg.QueueDepth {
		return false, "queue saturated"
	}
	return true, ""
}

// RetryAfterSeconds is the backoff hint attached to 429/503 responses:
// current queue depth (waiting plus running) times the observed p50 job
// latency, clamped to [1, 30] seconds — i.e. roughly how long until the
// backlog ahead of a retry has drained. Before any job has completed the
// p50 is unknown and assumed to be one second.
func (s *Scheduler) RetryAfterSeconds() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	p50us := s.latency.P50()
	if p50us <= 0 {
		p50us = 1_000_000
	}
	depth := int64(len(s.queue) + s.running)
	secs := (depth*p50us + 999_999) / 1_000_000
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return int(secs)
}

// Job returns a snapshot of one job.
func (s *Scheduler) Job(id string) (JobView, bool) {
	seq, ok := parseJobID(id)
	if !ok {
		return JobView{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.live[seq]; ok {
		return j.view(), true
	}
	if r, ok := s.finished.get(seq); ok {
		return r.view(), true
	}
	return JobView{}, false
}

// view snapshots a queued or running job; callers hold s.mu.
func (j *job) view() JobView {
	return JobView{
		ID:        j.id,
		SpecHash:  j.hash,
		Spec:      j.spec,
		Status:    j.status,
		RequestID: j.reqID,
		Spans:     j.spans.List(),
	}
}

// worker drains the queue until it is closed, executing (or deduplicating)
// one job at a time.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.safeRun(j)
	}
}

// safeRun is the last-resort guard around the scheduler's own bookkeeping:
// execSafe already contains executor panics, so anything reaching here came
// from scheduler or sink code — the job, unless it had finished, is marked
// failed and the worker stays alive to serve the rest of the queue.
func (s *Scheduler) safeRun(j *job) {
	defer func() {
		if r := recover(); r != nil {
			s.finish(j, time.Time{}, nil, false, fmt.Errorf("simsvc: worker panic: %v", r))
		}
	}()
	s.runJob(j)
}

// runJob executes one queued job: recheck the cache (an identical job may
// have finished while this one queued), then coalesce onto or start the
// one real simulation for this hash, then publish the outcome.
func (s *Scheduler) runJob(j *job) {
	started := time.Now()
	s.mu.Lock()
	j.status = StatusRunning
	s.running++
	s.mu.Unlock()
	j.spans.Add("queue-wait", started.Sub(j.enqueued))

	lookup := time.Now()
	e, ok := s.cfg.Store.lookup([]byte(j.hash), &j.spec)
	j.spans.Add("cache-lookup", time.Since(lookup))
	if ok {
		s.finish(j, started, e, true, nil)
		return
	}
	flightStart := time.Now()
	e, err, sharedRun := s.flight.do(s.baseCtx, j.hash, func() (*entry, error) {
		ctx := telemetry.WithSpans(s.baseCtx, j.spans)
		var cancel context.CancelFunc = func() {}
		if s.cfg.JobTimeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
		}
		defer cancel()
		s.mu.Lock()
		s.executed++
		s.mu.Unlock()
		execStart := time.Now()
		p, err := s.execSafe(ctx, j)
		j.spans.Add("execute", time.Since(execStart))
		if err != nil {
			return nil, err
		}
		putStart := time.Now()
		e := s.store(j, p)
		j.spans.Add("cache-store", time.Since(putStart))
		return e, nil
	})
	if sharedRun {
		// This job piggybacked on an identical in-flight run: what it
		// spent was the wait for that run, not its own execution.
		j.spans.Add("coalesce", time.Since(flightStart))
	}
	s.finish(j, started, e, sharedRun, err)
}

// store caches a job's payload under its hash and returns the entry. A failed
// disk write is logged and otherwise ignored: the payload is in memory, so the
// result is valid and served; only persistence failed.
func (s *Scheduler) store(j *job, p []byte) *entry {
	e, err := s.cfg.Store.put(j.hash, p, &j.spec)
	if err != nil {
		log.Printf("simsvc: job %s (hash=%s): result not persisted: %v", j.id, j.hash, err)
	}
	return e
}

// execSafe runs the configured executor on j's spec, converting a panic into
// a plain job failure so one poisoned spec cannot take a worker goroutine —
// and with it a fraction of the service's capacity — down with it. With a
// trace writer configured the simulation gets a bus of its own whose one sink
// stamps every event with j's ID.
func (s *Scheduler) execSafe(ctx context.Context, j *job) (payload []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			payload, err = nil, fmt.Errorf("simsvc: job panicked: %v", r)
		}
	}()
	exec := s.cfg.Exec
	if exec == nil {
		exec = Execute
	}
	var bus *obs.Bus
	if s.cfg.Trace != nil {
		bus = obs.NewBus(jobSink{s.cfg.Trace, j.id})
	}
	return exec(ctx, j.spec, bus)
}

// finish moves a job from the live map to the finished table with its outcome:
// the store entry its hash resolved to, answered from the store or a shared
// run when cached, or err. started is when a worker picked the job up, zero if
// the worker panicked; a job already finished stays as it finished.
func (s *Scheduler) finish(j *job, started time.Time, e *entry, cached bool, err error) {
	r := record{reqID: j.reqID, seq: j.seq}
	if err != nil {
		r.ent, r.failed = &entry{hash: j.hash, spec: j.spec, err: err.Error()}, true
	} else {
		r.ent, r.cached = e, cached
	}
	r.setSpans(j.spans.List())
	s.mu.Lock()
	if s.live[j.seq] != j {
		s.mu.Unlock()
		return
	}
	delete(s.live, j.seq)
	if j.status == StatusRunning {
		s.running--
	}
	if err != nil {
		s.failed++
	} else {
		s.done++
		if cached {
			// A queued job answered without its own simulation: either the
			// cache filled while it waited, or it piggybacked on an
			// identical in-flight run.
			s.coalesce++
		}
	}
	if !started.IsZero() {
		s.latency.Add(time.Since(started).Microseconds())
	}
	rec := s.finished.push(r)
	var v JobView
	if s.cfg.Trace != nil {
		v = rec.view()
	}
	s.mu.Unlock()
	s.cfg.Trace.job(v)
}

// Drain begins graceful shutdown: new submissions are rejected with
// ErrDraining, every already-accepted job (queued or running) completes,
// and workers exit. If ctx expires first, in-flight simulations are
// cancelled — their jobs fail with ctx.Err() rather than being lost — and
// Drain returns the ctx error.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()

	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		s.cancel()
		<-finished
		return ctx.Err()
	}
}

// Metrics is the /metrics payload.
type Metrics struct {
	QueueDepth int  `json:"queue_depth"`
	QueueCap   int  `json:"queue_cap"`
	Workers    int  `json:"workers"`
	Running    int  `json:"running"`
	Draining   bool `json:"draining"`

	JobsAccepted int64 `json:"jobs_accepted"`
	JobsDone     int64 `json:"jobs_done"`
	JobsFailed   int64 `json:"jobs_failed"`

	Cache struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Coalesced int64 `json:"coalesced"`
		Executed  int64 `json:"executed"`
		Entries   int   `json:"entries"`
	} `json:"cache"`

	// Job wall latency (queue pickup to completion) in microseconds, from
	// internal/stats' log-bucketed histogram.
	JobLatencyUS struct {
		P50   int64 `json:"p50"`
		P95   int64 `json:"p95"`
		P99   int64 `json:"p99"`
		Max   int64 `json:"max"`
		Count int64 `json:"count"`
	} `json:"job_latency_us"`
}

// Metrics snapshots scheduler and cache state.
func (s *Scheduler) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	var m Metrics
	m.QueueDepth = len(s.queue)
	m.QueueCap = s.cfg.QueueDepth
	m.Workers = s.cfg.Workers
	m.Running = s.running
	m.Draining = s.draining
	m.JobsAccepted = s.accepted
	m.JobsDone = s.done
	m.JobsFailed = s.failed
	m.Cache.Hits = s.hits
	m.Cache.Misses = s.misses
	m.Cache.Coalesced = s.coalesce
	m.Cache.Executed = s.executed
	m.Cache.Entries = s.cfg.Store.Len()
	m.JobLatencyUS.P50 = s.latency.P50()
	m.JobLatencyUS.P95 = s.latency.P95()
	m.JobLatencyUS.P99 = s.latency.P99()
	m.JobLatencyUS.Max = s.latency.Max()
	m.JobLatencyUS.Count = s.latency.Count()
	return m
}
