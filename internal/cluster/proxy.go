package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/simsvc"
)

// The coordinator serves the same API surface as a single simserve — a
// client cannot tell one shard from a cluster:
//
//	POST /v1/runs      route by spec hash; hedged + re-routed as needed
//	GET  /v1/runs/{id} poll a coordinator job (r-NNNNNN) or fetch a cached
//	                   result content-addressed by 16-hex spec hash
//	POST /v1/sweeps    expand the rate ladder and scatter each point to the
//	                   shard owning its spec hash
//	GET  /v1/cluster   ring topology, breaker states, jobs tracked
//	GET  /metrics      Prometheus text exposition
//	GET  /metrics.json the /v1/cluster document (JSON scrapers)
//	GET  /healthz      coordinator liveness
//	GET  /readyz       503 while draining or with zero live backends
func (c *Coordinator) routes() {
	c.shell = simsvc.NewHTTPShell(c.reg, "simring", c.cfg.Logger)
	c.shell.HandleFunc("POST /v1/runs", c.handleSubmit)
	c.shell.HandleFunc("GET /v1/runs/{id}", c.handleGet)
	c.shell.HandleFunc("POST /v1/sweeps", c.handleSweep)
	c.shell.HandleFunc("GET /v1/cluster", c.handleCluster)
	c.shell.HandleMetrics(c.reg, c.handleCluster)
	c.shell.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if c.Draining() {
			c.writeJSON(w, http.StatusServiceUnavailable, simsvc.APIError{Error: "not ready: draining"}, c.defaultRetryAfter())
			return
		}
		if c.LiveBackends() == 0 {
			c.writeJSON(w, http.StatusServiceUnavailable, simsvc.APIError{Error: "not ready: no live backends"}, c.defaultRetryAfter())
			return
		}
		c.writeJSON(w, http.StatusOK, map[string]string{"status": "ready"}, 0)
	})
}

// ServeHTTP implements http.Handler through the shell simserve uses: the
// handlers read the request ID it sets in the response header and send it on
// the proxied hop, so one ID joins client → coordinator → shard.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) { c.shell.ServeHTTP(w, r) }

// defaultRetryAfter is the hint when no backend supplied one: one probe
// interval, rounded up — the soonest the cluster's view of itself can
// change.
func (c *Coordinator) defaultRetryAfter() int {
	s := int((c.cfg.ProbeInterval + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

func (c *Coordinator) writeJSON(w http.ResponseWriter, status int, v any, retryAfter int) {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	c.shell.WriteJSON(w, status, v)
}

// writeRaw passes a backend response through unmodified.
func (c *Coordinator) writeRaw(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// readSpec validates the submitted spec and returns its canonical hash
// plus the body forwarded to backends. The forwarded body is the client's
// original bytes, NOT a re-marshal of the normalized spec: normalization
// maps sentinels onto zero values (warmup:-1 → 0) that omitempty would
// drop, and the backend would re-normalize the omission into a different
// default — silently changing the spec and its hash. Both sides instead
// run the identical Normalize(original) computation, so the coordinator's
// routing hash and every backend's job hash agree.
func readSpec(r *http.Request, w http.ResponseWriter) (hash string, body []byte, err error) {
	body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, simsvc.MaxBodyBytes))
	if err != nil {
		return "", nil, fmt.Errorf("bad spec: %w", err)
	}
	spec, err := simsvc.DecodeSpec(body)
	if err != nil {
		return "", nil, fmt.Errorf("bad spec: %w", err)
	}
	norm, err := spec.Normalized()
	if err != nil {
		return "", nil, err
	}
	return norm.Hash(), body, nil
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if c.Draining() {
		c.writeJSON(w, http.StatusServiceUnavailable,
			simsvc.APIError{Error: "simring: coordinator draining"}, c.defaultRetryAfter())
		return
	}
	hash, body, err := readSpec(r, w)
	if err != nil {
		c.writeJSON(w, http.StatusBadRequest, simsvc.APIError{Error: err.Error()}, 0)
		return
	}
	reqID := w.Header().Get(simsvc.RequestIDHeader)

	o := c.submit(r.Context(), hash, body, reqID)
	if o.usable() {
		if o.status != http.StatusOK && o.status != http.StatusAccepted {
			// Definitive non-acceptance (400 and friends): pass through.
			c.writeRaw(w, o.status, o.body)
			return
		}
		v, _, err := c.adoptJobView(o, hash, body, reqID)
		if err != nil {
			c.writeJSON(w, http.StatusBadGateway,
				simsvc.APIError{Error: "simring: bad backend response: " + err.Error()}, 0)
			return
		}
		c.writeJSON(w, o.status, v, 0)
		return
	}

	// No replica took the spec: answer as one full shard would. A local
	// queue smaller than everything the clients can send would only delay
	// this answer.
	status, msg := http.StatusServiceUnavailable, "simring: no replica is available"
	if o.status == http.StatusTooManyRequests {
		status, msg = http.StatusTooManyRequests, "simring: every replica is saturated"
	}
	c.writeJSON(w, status, simsvc.APIError{Error: msg}, c.retryHint(o.retryAfter))
}

// retryHint is the Retry-After of a refusal: the largest hint a backend sent,
// or defaultRetryAfter if none sent one.
func (c *Coordinator) retryHint(largest int) int {
	if largest <= 0 {
		return c.defaultRetryAfter()
	}
	return largest
}

// adoptJobView records an accepted backend job under a coordinator-minted
// ID and rewrites the view so the client polls the coordinator, not the
// shard.
func (c *Coordinator) adoptJobView(o outcome, hash string, body []byte, reqID string) (simsvc.JobView, *coordJob, error) {
	var v simsvc.JobView
	if err := json.Unmarshal(o.body, &v); err != nil {
		return v, nil, err
	}
	c.mu.Lock()
	j := c.register(hash, body, reqID, o.b.idx, v.ID)
	if v.Status == simsvc.StatusDone || v.Status == simsvc.StatusFailed {
		j.done = true
	}
	c.mu.Unlock()
	v.ID = j.id
	return v, j, nil
}

// spec is the job's spec as a shard reports it: the submitted body decoded and
// normalized, which cannot fail for a body readSpec accepted.
func (j *coordJob) spec() simsvc.RunSpec {
	spec, _ := simsvc.DecodeSpec(j.body)
	norm, _ := spec.Normalized()
	return norm
}

// pendingView synthesizes the queued JobView for a job no shard holds right
// now. Callers need not hold c.mu (fields used are written once at
// registration).
func (c *Coordinator) pendingView(j *coordJob) simsvc.JobView {
	return simsvc.JobView{
		ID:        j.id,
		SpecHash:  j.hash,
		Spec:      j.spec(),
		Status:    simsvc.StatusQueued,
		RequestID: j.reqID,
	}
}

func (c *Coordinator) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	reqID := w.Header().Get(simsvc.RequestIDHeader)

	if simsvc.IsSpecHash(id) {
		// Content-addressed: any replica's copy is the answer.
		for _, b := range c.chain(id) {
			if !b.up() {
				continue
			}
			o := c.roundTrip(r.Context(), b, http.MethodGet, "/v1/runs/"+id, nil, reqID)
			if o.status == http.StatusOK {
				c.writeRaw(w, o.status, o.body)
				return
			}
		}
		c.writeJSON(w, http.StatusNotFound, simsvc.APIError{Error: "no cached result for spec " + id}, 0)
		return
	}

	c.mu.Lock()
	j, ok := c.jobs[id]
	var bIdx int
	var backendJobID string
	if ok {
		bIdx, backendJobID = j.backendIdx, j.backendJobID
	}
	c.mu.Unlock()
	if !ok {
		c.writeJSON(w, http.StatusNotFound, simsvc.APIError{Error: "unknown job " + id}, 0)
		return
	}

	// A down shard is not asked: a hung one would hold the poll for the
	// whole client timeout. A shard's view counts only for this job's spec:
	// a restarted shard numbers its jobs from j-000001 again, so the ID it
	// accepted this job under may now name another spec's job.
	if b := c.backends[bIdx]; b.up() {
		o := c.roundTrip(r.Context(), b, http.MethodGet, "/v1/runs/"+backendJobID, nil, reqID)
		if o.status == http.StatusOK {
			var v simsvc.JobView
			if uerr := json.Unmarshal(o.body, &v); uerr == nil && v.SpecHash == j.hash {
				if v.Status == simsvc.StatusDone || v.Status == simsvc.StatusFailed {
					c.mu.Lock()
					j.done = true
					c.mu.Unlock()
				}
				v.ID = j.id
				c.writeJSON(w, http.StatusOK, v, 0)
				return
			}
		}
		c.reportOutcome(o)
	}

	// The shard that accepted this job is down, unreachable, or restarted
	// and forgot it (or reuses its ID). The job is NOT lost: results are
	// content-addressed, so first look for the payload on any replica, and
	// failing that replay the retained spec body onto a live shard under the
	// same coordinator ID. A 404 is a live shard's answer and leaves its breaker closed.
	for _, b := range c.chain(j.hash) {
		if !b.up() {
			continue
		}
		o := c.roundTrip(r.Context(), b, http.MethodGet, "/v1/runs/"+j.hash, nil, reqID)
		if o.status != http.StatusOK {
			continue
		}
		var cv simsvc.CachedView
		if json.Unmarshal(o.body, &cv) != nil {
			continue
		}
		c.mu.Lock()
		j.done = true
		c.mu.Unlock()
		c.writeJSON(w, http.StatusOK, simsvc.JobView{
			ID: j.id, SpecHash: j.hash, Spec: j.spec(),
			Status: simsvc.StatusDone, Cached: true,
			RequestID: j.reqID, Result: cv.Result,
		}, 0)
		return
	}

	if v, ok := c.placeOnce(r.Context(), j); ok {
		c.m.resurrected.Inc()
		c.cfg.Logger.Printf("simring: job %s resurrected after backend loss", j.id)
		v.ID = j.id
		c.writeJSON(w, http.StatusOK, v, 0)
		return
	}

	// Nowhere to place it right now: it stays accepted and answers queued,
	// and the next poll tries again.
	c.writeJSON(w, http.StatusOK, c.pendingView(j), 0)
}

// handleSweep expands the rate ladder locally and scatters each point to
// the shard owning its spec hash. Unlike a single shard — where one full
// queue fails the whole suffix — points route to different shards, so each
// is attempted: entries carry per-point errors and the response status is
// 202 if anything was accepted.
func (c *Coordinator) handleSweep(w http.ResponseWriter, r *http.Request) {
	if c.Draining() {
		c.writeJSON(w, http.StatusServiceUnavailable,
			simsvc.APIError{Error: "simring: coordinator draining"}, c.defaultRetryAfter())
		return
	}
	req, rates, err := simsvc.DecodeSweep(w, r)
	if err != nil {
		c.writeJSON(w, http.StatusBadRequest, simsvc.APIError{Error: err.Error()}, 0)
		return
	}
	reqID := w.Header().Get(simsvc.RequestIDHeader)
	resp := simsvc.SweepResponse{Jobs: make([]simsvc.SweepEntry, 0, len(rates))}
	accepted, largestHint := 0, 0
	worst := http.StatusAccepted
	for _, rate := range rates {
		spec := req.Spec
		spec.Rate = rate
		norm, err := spec.Normalized()
		if err != nil {
			resp.Jobs = append(resp.Jobs, simsvc.SweepEntry{Rate: rate, Error: err.Error()})
			worst = http.StatusBadRequest
			continue
		}
		// Marshal the pre-normalization spec: sentinel values (warmup:-1)
		// survive this round-trip, where a normalized spec's zeros would be
		// dropped by omitempty and re-defaulted differently by the backend.
		body, _ := json.Marshal(spec)
		hash := norm.Hash()
		o := c.submit(r.Context(), hash, body, reqID)
		if !o.usable() || (o.status != http.StatusOK && o.status != http.StatusAccepted) {
			msg := "unreachable"
			if o.err != nil {
				msg = o.err.Error()
			} else if o.status != 0 {
				msg = fmt.Sprintf("HTTP %d", o.status)
			}
			resp.Jobs = append(resp.Jobs, simsvc.SweepEntry{Rate: rate, Error: msg})
			if o.status == http.StatusTooManyRequests {
				worst = http.StatusTooManyRequests
			}
			largestHint = max(largestHint, o.retryAfter)
			continue
		}
		_, j, err := c.adoptJobView(o, hash, body, reqID)
		if err != nil {
			resp.Jobs = append(resp.Jobs, simsvc.SweepEntry{Rate: rate, Error: err.Error()})
			continue
		}
		accepted++
		resp.Jobs = append(resp.Jobs, simsvc.SweepEntry{Rate: rate, ID: j.id})
	}
	status := http.StatusAccepted
	if accepted == 0 {
		status = worst
		if status == http.StatusAccepted {
			status = http.StatusServiceUnavailable
		}
	}
	ra := 0
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		ra = c.retryHint(largestHint)
	}
	c.writeJSON(w, status, resp, ra)
}

// ClusterStatus is the /v1/cluster document.
type ClusterStatus struct {
	Backends     []BackendStatus `json:"backends"`
	Replicas     int             `json:"replicas"`
	LiveBackends int             `json:"live_backends"`
	Draining     bool            `json:"draining"`
	HedgeDelayMS float64         `json:"hedge_delay_ms"`
	JobsTracked  int             `json:"jobs_tracked"`
}

// BackendStatus is one ring member's view.
type BackendStatus struct {
	URL     string `json:"url"`
	Breaker string `json:"breaker"`
}

func (c *Coordinator) status() ClusterStatus {
	st := ClusterStatus{
		Replicas:     c.cfg.Replicas,
		HedgeDelayMS: float64(c.hedgeDelay()) / float64(time.Millisecond),
	}
	for _, b := range c.backends {
		s := b.breaker.State()
		st.Backends = append(st.Backends, BackendStatus{URL: b.url, Breaker: s.String()})
		if s == BreakerClosed {
			st.LiveBackends++
		}
	}
	c.mu.Lock()
	st.Draining = c.draining
	st.JobsTracked = len(c.jobs)
	c.mu.Unlock()
	return st
}

func (c *Coordinator) handleCluster(w http.ResponseWriter, r *http.Request) {
	c.writeJSON(w, http.StatusOK, c.status(), 0)
}
