package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
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
	// ProbeTimeout bounds one probe request (default ProbeInterval). A
	// hung backend reads as down within ProbeInterval + ProbeTimeout.
	ProbeTimeout time.Duration
	// MaxPasses is how many full passes over a key's replica chain a
	// submission makes before answering 429 or 503 (default 2).
	MaxPasses int
	// RetryBase is the first inter-pass backoff; passes double it with
	// full jitter, capped at RetryMax (defaults 25ms, 1s). A backend's
	// Retry-After hint raises the sleep when larger (capped at RetryMax,
	// because a request-scoped retry cannot wait out a 30s hint — the
	// client can, and gets the hint in the answer's Retry-After).
	RetryBase time.Duration
	RetryMax  time.Duration
	// DisableHedge turns off hedged requests (they default on).
	DisableHedge bool
	// HedgeMin/HedgeMax clamp the p95-derived hedge delay (defaults
	// 10ms, 1s). Until enough latency samples exist the delay is HedgeMax.
	HedgeMin time.Duration
	HedgeMax time.Duration
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
	breaker Breaker

	mu   sync.Mutex
	life context.Context // ends when the breaker opens, and with it every request in flight
	end  context.CancelFunc
}

// up reports whether requests may go to the backend.
func (b *backend) up() bool { return b.breaker.State() == BreakerClosed }

// errBreakerOpen is why a request in flight to a backend was cancelled.
var errBreakerOpen = errors.New("cluster: the backend's breaker opened while the request was in flight")

// lifetime is a context that ends when the breaker next opens; it has ended if
// the breaker is open.
func (b *backend) lifetime() context.Context {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.life
}

// track makes the lifetime match the breaker: it ends it if the breaker is
// open and begins a new one if it is closed and the last has ended. It reads
// the breaker rather than being told the transition, so that the hooks of
// racing transitions, whatever order they run in, leave the two agreeing.
func (b *backend) track() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case !b.up():
		b.end()
	case b.life == nil || b.life.Err() != nil:
		b.life, b.end = context.WithCancel(context.Background())
	}
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
	backendIdx   int    // the shard that last accepted it
	backendJobID string // that shard's j-NNNNNN
	done         bool
}

// Coordinator fronts N simserve backends: it owns the ring, the breakers,
// the health probers, the hedging machinery, and the job table that maps
// coordinator job IDs onto backend jobs. It is an
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

	mu       sync.Mutex
	jobs     map[string]*coordJob
	order    []string // insertion order of the ids in jobs, for bounded eviction
	seq      int64
	draining bool

	// evictVisited counts the order entries evictLocked has examined: the
	// exact cost TestEvictionAmortised bounds.
	evictVisited int64
}

// New builds a coordinator and starts its health probers.
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
		b := &backend{idx: i, url: url}
		b.track()
		name := b.url
		b.breaker.onChange = func(from, to BreakerState) {
			b.track()
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
	return c, nil
}

// Registry exposes the coordinator's metrics registry.
func (c *Coordinator) Registry() *telemetry.Registry { return c.reg }

// Ring exposes the placement function, mainly for tests and status pages.
func (c *Coordinator) Ring() *Ring { return c.ring }

// Breaker returns backend i's breaker.
func (c *Coordinator) Breaker(i int) *Breaker { return &c.backends[i].breaker }

// probeLoop actively probes one backend's /readyz (falling back to /healthz
// on 404 for pre-readiness backends) every ProbeInterval, open or closed,
// feeding the breaker. It is the only thing that closes a breaker, and what
// opens it for a draining or hung backend even when no client traffic is
// flowing.
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
		if c.probeOnce(b) {
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
// the hop, and counts it by backend and status (or "error"). If the backend's
// breaker opens before it answers, the request is cancelled and fails with
// errBreakerOpen, as a transport error would: a hung backend does not hold it
// for the client timeout.
func (c *Coordinator) roundTrip(ctx context.Context, b *backend, method, path string, body []byte, reqID string) outcome {
	o := outcome{b: b}
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	defer context.AfterFunc(b.lifetime(), func() { cancel(errBreakerOpen) })()
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
		if cause := context.Cause(ctx); cause == errBreakerOpen {
			err = cause
		}
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

// reportOutcome feeds a failed attempt to the backend's breaker: 503
// (draining), any other 5xx and transport errors open it, so subsequent
// requests skip the backend until a probe heals it. Any other answer,
// deliberate 429 backpressure included, comes from a live backend and
// changes nothing.
func (c *Coordinator) reportOutcome(o outcome) {
	if o.err != nil || o.status >= 500 {
		o.b.breaker.ReportFailure()
	}
}

// submit routes one spec through the ring: walk the key's replica chain
// (hedging each leg against its successor), skipping open breakers; after
// each full failed pass, back off with jitter — honoring the largest
// Retry-After any backend returned, capped at RetryMax — and try again.
// When MaxPasses passes produce nothing, the returned outcome is not usable:
// its status is 429 only if every attempt answered 429 (0 if no breaker let
// an attempt through), and its retryAfter is the largest hint any backend
// sent.
func (c *Coordinator) submit(ctx context.Context, hash string, body []byte, reqID string) outcome {
	chain := c.chain(hash)
	var last outcome // the first attempt that was not a 429, else the latest 429
	for pass := 0; pass < c.cfg.MaxPasses; pass++ {
		for i, b := range chain {
			if !b.up() {
				c.m.reroutes.Inc()
				continue
			}
			var hedge *backend
			for j := i + 1; j < len(chain); j++ {
				if chain[j].up() {
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
			if last.b == nil || last.status == http.StatusTooManyRequests {
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
// capped at RetryMax — a 30s hint is the client's to wait out, and
// handleSubmit passes it on). Returns false if ctx expired first.
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

// register mints a coordinator job ID and records the placement. Callers
// hold c.mu.
func (c *Coordinator) register(hash string, body []byte, reqID string, bIdx int, backendJobID string) *coordJob {
	c.seq++
	j := &coordJob{
		id:         fmt.Sprintf("r-%06d", c.seq),
		hash:       hash,
		body:       body,
		reqID:      reqID,
		backendIdx: bIdx, backendJobID: backendJobID,
	}
	c.jobs[j.id] = j
	c.order = append(c.order, j.id)
	c.evictLocked()
	return j
}

// evictLocked bounds the job table at the shards' own cap,
// simsvc.JobTableCap, so no shard forgets a job its coordinator still
// serves: completed entries go first, oldest first; live entries are only
// evicted once no completed ones remain. A table over its cap is cut back to
// a sixteenth below it, as far as completed entries allow, so the walk over
// the insertion order is paid once per cap/16 submissions instead of on every
// one past the cap. Callers hold c.mu.
func (c *Coordinator) evictLocked() {
	const limit = simsvc.JobTableCap
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

// placeOnce replays a job's retained body down its replica chain, one
// unhedged attempt per live shard, and moves the job record to the first
// shard that accepts it. It reports the accepting shard's view, or false if
// no shard took the job.
func (c *Coordinator) placeOnce(ctx context.Context, j *coordJob) (simsvc.JobView, bool) {
	for _, b := range c.chain(j.hash) {
		if !b.up() {
			continue
		}
		o := c.submitOnce(ctx, b, j.body, j.reqID)
		c.reportOutcome(o)
		var v simsvc.JobView
		if (o.status != http.StatusOK && o.status != http.StatusAccepted) || json.Unmarshal(o.body, &v) != nil {
			continue
		}
		c.mu.Lock()
		j.backendIdx = b.idx
		j.backendJobID = v.ID
		if v.Status == simsvc.StatusDone {
			j.done = true
		}
		c.mu.Unlock()
		return v, true
	}
	return simsvc.JobView{}, false
}

// Draining reports whether Drain has begun.
func (c *Coordinator) Draining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.draining
}

// Drain begins graceful shutdown: new submissions are refused with 503 and
// the probe loops stop. Every accepted job already lives on a shard, so
// there is nothing to hand over and ctx is not waited on; in-flight proxied
// requests are the HTTP server's to finish (http.Server.Shutdown waits for
// handlers).
func (c *Coordinator) Drain(ctx context.Context) error {
	c.mu.Lock()
	already := c.draining
	c.draining = true
	c.mu.Unlock()
	if !already {
		close(c.stop)
		c.wg.Wait()
	}
	return nil
}

// LiveBackends counts backends whose breaker is not open.
func (c *Coordinator) LiveBackends() int {
	n := 0
	for _, b := range c.backends {
		if b.up() {
			n++
		}
	}
	return n
}
