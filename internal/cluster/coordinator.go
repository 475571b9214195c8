package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/simsvc"
	"repro/internal/telemetry"
)

// Config parameterizes a Coordinator.
type Config struct {
	// Backends are the simserve base URLs (e.g. http://127.0.0.1:9001),
	// in a stable order — the ring hashes the URL strings, so the same
	// list always yields the same placement.
	Backends []string
	// Replicas is the failover/hedge chain length per key: the owner plus
	// Replicas-1 ring successors (default min(3, len(Backends))).
	Replicas int
	// ProbeInterval is the health-probe period per backend (default 500ms).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe request (default ProbeInterval).
	ProbeTimeout time.Duration
	// BreakerThreshold is the consecutive failures that trip a breaker
	// open (default 1: the first failed probe or proxied request opens it,
	// which is what lets the chaos criterion "opens within one probe
	// interval" hold).
	BreakerThreshold int
	// BreakerOpenFor is how long an open breaker refuses before admitting
	// a half-open trial (default 2×ProbeInterval).
	BreakerOpenFor time.Duration
	// MaxPasses is how many full passes over a key's replica chain a
	// submission makes before degrading (default 2).
	MaxPasses int
	// RetryBase is the first inter-pass backoff; passes double it with
	// full jitter, capped at RetryMax (defaults 25ms, 1s). A backend's
	// Retry-After hint raises the sleep when larger (capped at RetryMax,
	// because a request-scoped retry cannot wait out a 30s hint — that is
	// what degraded mode is for).
	RetryBase time.Duration
	RetryMax  time.Duration
	// DisableHedge turns off hedged requests (they default on).
	DisableHedge bool
	// HedgeMin/HedgeMax clamp the p95-derived hedge delay (defaults
	// 10ms, 1s). Until enough latency samples exist the delay is HedgeMax.
	HedgeMin time.Duration
	HedgeMax time.Duration
	// QueueDepth bounds the degraded-mode local queue (default 64).
	QueueDepth int
	// JobTableCap bounds the coordinator's job table (default 16384);
	// past it the oldest completed entries are evicted first.
	JobTableCap int
	// Client is the HTTP client for proxied requests (default: 30s
	// timeout).
	Client *http.Client
	// Logger receives access and event lines (default log.Default()).
	Logger *log.Logger
}

func (c *Config) withDefaults() error {
	if len(c.Backends) == 0 {
		return fmt.Errorf("cluster: no backends configured")
	}
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.Replicas > len(c.Backends) {
		c.Replicas = len(c.Backends)
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = c.ProbeInterval
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 1
	}
	if c.BreakerOpenFor <= 0 {
		c.BreakerOpenFor = 2 * c.ProbeInterval
	}
	if c.MaxPasses <= 0 {
		c.MaxPasses = 2
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 25 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = time.Second
	}
	if c.HedgeMin <= 0 {
		c.HedgeMin = 10 * time.Millisecond
	}
	if c.HedgeMax <= 0 {
		c.HedgeMax = time.Second
	}
	if c.HedgeMax < c.HedgeMin {
		c.HedgeMax = c.HedgeMin
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.JobTableCap <= 0 {
		c.JobTableCap = 16384
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if c.Logger == nil {
		c.Logger = log.Default()
	}
	return nil
}

// backend is one ring member: its URL plus the breaker gating traffic to it.
type backend struct {
	idx     int
	url     string
	breaker *Breaker
}

// coordJob is the coordinator's record of one accepted submission: enough
// to re-route polling and, because the body is retained, to resurrect the
// job on another shard if the one that accepted it dies. This is what makes
// "zero accepted-job loss" a coordinator property rather than a per-backend
// one.
type coordJob struct {
	id           string // coordinator-minted r-NNNNNN
	hash         string
	body         []byte // the spec as submitted (not normalized), replayable to any backend
	reqID        string
	backendIdx   int    // -1 while queued degraded
	backendJobID string // backend-local j-NNNNNN once placed
	done         bool
	enqueued     time.Time
}

// Coordinator fronts N simserve backends: it owns the ring, the breakers,
// the health probers, the hedging machinery, the degraded-mode queue, and
// the job table that maps coordinator job IDs onto backend jobs. It is an
// http.Handler serving the same API surface as a single simserve, so
// clients cannot tell one shard from a cluster.
type Coordinator struct {
	cfg      Config
	ring     *Ring
	backends []*backend
	shell    *simsvc.HTTPShell
	reg      *telemetry.Registry
	m        *ringMetrics
	lat      *telemetry.Window // submit round-trip seconds, feeds hedge delay

	stop chan struct{}
	wg   sync.WaitGroup

	// flushMu serializes degraded-queue flushes: the ticker loop and Drain
	// both call flushPending, and two concurrent flushes could pop a job
	// the other one placed.
	flushMu sync.Mutex

	mu       sync.Mutex
	jobs     map[string]*coordJob
	order    []string // insertion order of the ids in jobs, for bounded eviction
	pending  []string // degraded-queue job IDs, FIFO
	seq      int64
	draining bool

	// evictVisited counts the order entries evictLocked has examined: the
	// exact cost TestEvictionAmortised bounds.
	evictVisited int64
}

// New builds a coordinator and starts its health probers and the
// degraded-queue flush loop.
func New(cfg Config) (*Coordinator, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	ring, err := NewRing(cfg.Backends)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:  cfg,
		ring: ring,
		lat:  telemetry.NewWindow(256),
		stop: make(chan struct{}),
		jobs: make(map[string]*coordJob),
	}
	c.reg, c.m = newRingMetrics(c)
	for i, url := range cfg.Backends {
		b := &backend{idx: i, url: url,
			breaker: newBreaker(cfg.BreakerThreshold, cfg.BreakerOpenFor, nil)}
		name := b.url
		b.breaker.onChange = func(from, to BreakerState) {
			c.m.breakerTransitions.With(name, to.String()).Inc()
			c.cfg.Logger.Printf("simring: breaker %s: %s -> %s", name, from, to)
		}
		c.backends = append(c.backends, b)
	}
	c.routes()
	for _, b := range c.backends {
		c.wg.Add(1)
		go c.probeLoop(b)
	}
	c.wg.Add(1)
	go c.flushLoop()
	return c, nil
}

// Registry exposes the coordinator's metrics registry.
func (c *Coordinator) Registry() *telemetry.Registry { return c.reg }

// Ring exposes the placement function, mainly for tests and status pages.
func (c *Coordinator) Ring() *Ring { return c.ring }

// Breaker returns backend i's breaker.
func (c *Coordinator) Breaker(i int) *Breaker { return c.backends[i].breaker }

// probeLoop actively probes one backend's /readyz (falling back to /healthz
// on 404 for pre-readiness backends) every ProbeInterval, feeding the
// breaker. This is what re-closes a breaker after recovery — and what opens
// it for a draining backend even when no client traffic is flowing.
func (c *Coordinator) probeLoop(b *backend) {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		if !b.breaker.Allow() {
			continue // open and inside its window: don't even probe
		}
		ok := c.probeOnce(b)
		if ok {
			b.breaker.ReportSuccess()
			c.m.probes.With(b.url, "ok").Inc()
		} else {
			b.breaker.ReportFailure()
			c.m.probes.With(b.url, "fail").Inc()
		}
	}
}

func (c *Coordinator) probeOnce(b *backend) bool {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
	defer cancel()
	status, err := c.probeGet(ctx, b.url+"/readyz")
	if err != nil {
		return false
	}
	if status == http.StatusNotFound {
		status, err = c.probeGet(ctx, b.url+"/healthz")
		if err != nil {
			return false
		}
	}
	return status == http.StatusOK
}

func (c *Coordinator) probeGet(ctx context.Context, url string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	return resp.StatusCode, nil
}

// chain returns the replica chain (backend structs) for a spec hash.
func (c *Coordinator) chain(hash string) []*backend {
	idxs := c.ring.Successors(hash, c.cfg.Replicas)
	out := make([]*backend, len(idxs))
	for i, idx := range idxs {
		out[i] = c.backends[idx]
	}
	return out
}

// hedgeDelay is the p95 of recent submit round-trips clamped to
// [HedgeMin, HedgeMax]; before any samples it is HedgeMax (hedge late
// rather than double-fire a cold cluster).
func (c *Coordinator) hedgeDelay() time.Duration {
	p95, ok := c.lat.Quantile(0.95)
	if !ok {
		return c.cfg.HedgeMax
	}
	d := time.Duration(p95 * float64(time.Second))
	if d < c.cfg.HedgeMin {
		d = c.cfg.HedgeMin
	}
	if d > c.cfg.HedgeMax {
		d = c.cfg.HedgeMax
	}
	return d
}

// outcome is one proxied submission attempt's result.
type outcome struct {
	b          *backend
	status     int
	body       []byte
	retryAfter int
	err        error
}

// usable reports whether the outcome should be returned to the client
// as-is: the backend accepted (200/202), rejected the spec (400), or
// produced any other definitive non-backpressure answer. 429/503 and
// transport errors instead mean "try the next replica".
func (o outcome) usable() bool {
	if o.err != nil || o.status == 0 {
		// status 0 with a nil error is the zero outcome: no attempt ever
		// reached a backend (every breaker open), which is not an answer.
		return false
	}
	switch o.status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return false
	}
	return o.status < 500
}

// roundTrip sends one request to one backend, carrying the request ID across
// the hop, and counts it by backend and status (or "error").
func (c *Coordinator) roundTrip(ctx context.Context, b *backend, method, path string, body []byte, reqID string) outcome {
	o := outcome{b: b}
	req, err := http.NewRequestWithContext(ctx, method, b.url+path, bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("X-Request-ID", reqID)
	resp, err := c.cfg.Client.Do(req)
	if err == nil {
		o.body, err = io.ReadAll(io.LimitReader(resp.Body, 8<<20))
		resp.Body.Close()
	}
	if err != nil {
		c.m.proxied.With(b.url, "error").Inc()
		o.err = err
		return o
	}
	o.status = resp.StatusCode
	o.retryAfter, _ = strconv.Atoi(resp.Header.Get("Retry-After"))
	c.m.proxied.With(b.url, strconv.Itoa(o.status)).Inc()
	return o
}

// submitOnce proxies one submission to one backend.
func (c *Coordinator) submitOnce(ctx context.Context, b *backend, body []byte, reqID string) outcome {
	start := time.Now()
	o := c.roundTrip(ctx, b, http.MethodPost, "/v1/runs", body, reqID)
	if o.usable() {
		c.lat.Add(time.Since(start).Seconds())
	}
	return o
}

// raceSubmit runs the hedged submission: fire at primary; if no answer
// within the hedge delay, fire the identical request at the hedge backend
// and take the first usable answer, cancelling the loser. Safe because
// results are content-addressed — both backends compute (or cache-serve)
// byte-identical payloads, so it never matters which answer wins. The
// losing backend still finishes its job and warms its shard's cache.
//
// Breaker contract: raceSubmit reports every leg outcome it does NOT
// return; the caller reports the returned one (exactly once each).
func (c *Coordinator) raceSubmit(ctx context.Context, primary, hedge *backend, body []byte, reqID string) outcome {
	if hedge == nil || c.cfg.DisableHedge {
		return c.submitOnce(ctx, primary, body, reqID)
	}
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan outcome, 2)
	launch := func(b *backend) {
		results <- c.submitOnce(rctx, b, body, reqID)
	}
	go launch(primary)

	hedged := false
	timer := time.NewTimer(c.hedgeDelay())
	defer timer.Stop()
	var first *outcome
	for {
		select {
		case <-timer.C:
			if !hedged {
				hedged = true
				c.m.hedges.Inc()
				go launch(hedge)
			}
		case o := <-results:
			if o.usable() {
				if hedged && o.b == hedge {
					c.m.hedgeWins.Inc()
				}
				cancel() // the loser's wait ends; its backend job carries on
				return o
			}
			if !hedged {
				// The primary failed before the hedge fired: promote the
				// hedge immediately rather than waiting out the timer.
				c.reportOutcome(o)
				hedged = true
				go launch(hedge)
				continue
			}
			if first == nil {
				first = &o
				continue // hold one loser; wait for the other leg
			}
			// Both legs failed; return the answer carrying backpressure
			// detail (a real 429/503 beats a transport error) and report
			// the other.
			if first.status != 0 && o.status == 0 {
				c.reportOutcome(o)
				return *first
			}
			c.reportOutcome(*first)
			return o
		case <-ctx.Done():
			return outcome{b: primary, err: ctx.Err()}
		}
	}
}

// reportOutcome feeds a failed attempt to the backend's breaker. 429 is
// deliberate backpressure from a live, non-draining backend — routing
// around it is right, tripping the breaker is not. 503 (draining) and
// transport errors open the breaker so subsequent requests skip the
// backend until a probe heals it.
func (c *Coordinator) reportOutcome(o outcome) {
	switch {
	case o.err != nil || o.status >= 500:
		o.b.breaker.ReportFailure()
	case o.status == http.StatusTooManyRequests:
		// breaker unchanged
	default:
		o.b.breaker.ReportSuccess()
	}
}

// submit routes one spec through the ring: walk the key's replica chain
// (hedging each leg against its successor), skipping open breakers; after
// each full failed pass, back off with jitter — honoring the largest
// Retry-After any backend returned, capped at RetryMax — and try again.
// When MaxPasses passes produce nothing, degrade: queue locally and tell
// the client 202 (accepted, will be placed) so accepted work survives even
// a whole-chain outage.
func (c *Coordinator) submit(ctx context.Context, hash string, body []byte, reqID string) outcome {
	chain := c.chain(hash)
	var last outcome
	for pass := 0; pass < c.cfg.MaxPasses; pass++ {
		for i, b := range chain {
			if !b.breaker.Allow() {
				c.m.reroutes.Inc()
				continue
			}
			var hedge *backend
			for j := i + 1; j < len(chain); j++ {
				if chain[j].breaker.State() != BreakerOpen {
					hedge = chain[j]
					break
				}
			}
			o := c.raceSubmit(ctx, b, hedge, body, reqID)
			if ctx.Err() == nil {
				// A ctx-cancelled leg says nothing about backend health.
				c.reportOutcome(o)
			}
			if o.usable() {
				return o
			}
			if o.retryAfter > last.retryAfter {
				last.retryAfter = o.retryAfter
			}
			if o.status != 0 || last.status == 0 {
				last.b, last.status, last.body, last.err = o.b, o.status, o.body, o.err
			}
			c.m.reroutes.Inc()
			if ctx.Err() != nil {
				return last
			}
		}
		if pass+1 >= c.cfg.MaxPasses {
			break
		}
		if !c.sleepBackoff(ctx, pass, last.retryAfter) {
			return last
		}
	}
	return last
}

// sleepBackoff waits out one inter-pass delay: capped exponential backoff
// with full jitter, floored by the backends' own Retry-After hint (itself
// capped at RetryMax — a 30s hint belongs to the degraded queue's clock,
// not a client-facing request). Returns false if ctx expired first.
func (c *Coordinator) sleepBackoff(ctx context.Context, pass int, retryAfterSec int) bool {
	d := simsvc.RetryDelay(c.cfg.RetryBase, c.cfg.RetryMax, pass)
	if ra := time.Duration(retryAfterSec) * time.Second; ra > d {
		d = ra
		if d > c.cfg.RetryMax {
			d = c.cfg.RetryMax
		}
	}
	c.m.retrySleeps.Inc()
	select {
	case <-time.After(d):
		return true
	case <-ctx.Done():
		return false
	}
}

// register mints a coordinator job ID and records the placement; bIdx is
// -1 for a degraded (locally queued) job, which also joins the pending
// FIFO. Callers hold c.mu.
func (c *Coordinator) register(hash string, body []byte, reqID string, bIdx int, backendJobID string) *coordJob {
	c.seq++
	j := &coordJob{
		id:         fmt.Sprintf("r-%06d", c.seq),
		hash:       hash,
		body:       body,
		reqID:      reqID,
		backendIdx: bIdx, backendJobID: backendJobID,
		enqueued: time.Now(),
	}
	c.jobs[j.id] = j
	c.order = append(c.order, j.id)
	if bIdx < 0 {
		c.pending = append(c.pending, j.id)
	}
	c.evictLocked()
	return j
}

// evictLocked bounds the job table: completed entries go first, oldest
// first; live entries are only evicted once no completed ones remain. A
// table over its cap is cut back to a sixteenth below it, as far as completed
// entries allow, so the walk over the insertion order is paid once per cap/16
// submissions instead of on every one past the cap. Callers hold c.mu.
func (c *Coordinator) evictLocked() {
	limit := c.cfg.JobTableCap
	if len(c.jobs) <= limit {
		return
	}
	low := limit - limit/16
	kept := c.order[:0]
	for i, id := range c.order {
		if len(c.jobs) <= low {
			kept = append(kept, c.order[i:]...)
			break
		}
		c.evictVisited++
		if c.jobs[id].done {
			delete(c.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	c.order = kept
	for len(c.jobs) > limit && len(c.order) > 0 {
		delete(c.jobs, c.order[0])
		c.order = c.order[1:]
	}
}

// flushLoop drains the degraded queue: whenever backends might have
// recovered (every probe interval), it re-runs the normal placement for
// the oldest pending jobs. Jobs placed here keep their coordinator IDs, so
// a client polling an ID it got during an outage sees the job progress
// normally once capacity returns.
func (c *Coordinator) flushLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		c.flushPending(context.Background())
	}
}

// flushPending attempts to place every currently-pending degraded job,
// stopping at the first placement failure (the cluster is still down —
// later entries would fail the same way).
func (c *Coordinator) flushPending(ctx context.Context) {
	c.flushMu.Lock()
	defer c.flushMu.Unlock()
	for {
		c.mu.Lock()
		if len(c.pending) == 0 {
			c.mu.Unlock()
			return
		}
		id := c.pending[0]
		j, ok := c.jobs[id]
		c.mu.Unlock()
		if !ok {
			c.mu.Lock()
			c.pending = c.pending[1:]
			c.mu.Unlock()
			continue
		}

		o := c.placeOnce(ctx, j)
		if !o.usable() {
			return
		}
		c.mu.Lock()
		c.pending = c.pending[1:]
		c.mu.Unlock()
		c.m.degradedFlushed.Inc()
	}
}

// placeOnce tries one placement pass for a degraded job (no hedging — the
// queue's clock is patient) and updates the job record on success.
func (c *Coordinator) placeOnce(ctx context.Context, j *coordJob) outcome {
	for _, b := range c.chain(j.hash) {
		if !b.breaker.Allow() {
			continue
		}
		o := c.submitOnce(ctx, b, j.body, j.reqID)
		c.reportOutcome(o)
		if !o.usable() {
			continue
		}
		if o.status == http.StatusBadRequest {
			// Can't happen for a spec that validated at enqueue time, but
			// never leave a poisoned entry clogging the queue head.
			c.mu.Lock()
			j.done = true
			c.mu.Unlock()
			return o
		}
		var v simsvc.JobView
		if err := json.Unmarshal(o.body, &v); err != nil {
			continue
		}
		c.mu.Lock()
		j.backendIdx = b.idx
		j.backendJobID = v.ID
		if v.Status == simsvc.StatusDone {
			j.done = true
		}
		c.mu.Unlock()
		c.cfg.Logger.Printf("simring: degraded job %s placed on %s as %s", j.id, b.url, v.ID)
		return o
	}
	return outcome{}
}

// Draining reports whether Drain has begun.
func (c *Coordinator) Draining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.draining
}

// Drain begins graceful shutdown: new submissions are refused with 503,
// and the degraded queue is flushed to whatever backends remain until it
// empties or ctx expires. In-flight proxied requests are the HTTP server's
// to finish (http.Server.Shutdown waits for handlers); Drain then stops
// the probe and flush loops.
func (c *Coordinator) Drain(ctx context.Context) error {
	c.mu.Lock()
	already := c.draining
	c.draining = true
	c.mu.Unlock()
	if already {
		return nil
	}

	var err error
	for {
		c.mu.Lock()
		n := len(c.pending)
		c.mu.Unlock()
		if n == 0 {
			break
		}
		if ctx.Err() != nil {
			err = fmt.Errorf("cluster: drain abandoned %d queued jobs: %w", n, ctx.Err())
			break
		}
		c.flushPending(ctx)
		select {
		case <-time.After(c.cfg.RetryBase):
		case <-ctx.Done():
		}
	}
	close(c.stop)
	c.wg.Wait()
	return err
}

// LiveBackends counts backends whose breaker is not open.
func (c *Coordinator) LiveBackends() int {
	n := 0
	for _, b := range c.backends {
		if b.breaker.State() != BreakerOpen {
			n++
		}
	}
	return n
}
