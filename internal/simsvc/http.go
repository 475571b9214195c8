package simsvc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
)

// Server is the HTTP JSON API over a Scheduler.
//
//	POST /v1/runs      submit one RunSpec; 200 on a cache hit, 202 when
//	                   queued, 400 on an invalid spec, 429 when the queue is
//	                   full, 503 while draining (both carry a Retry-After
//	                   derived from queue depth × observed p50 job latency)
//	GET  /v1/runs/{id} fetch a job (result payload and span timings included
//	                   once done); a 16-hex spec hash instead of a job ID is
//	                   the content-addressed read path — 200 with the cached
//	                   result or 404, used for cross-shard cache fill
//	POST /v1/sweeps    expand a load-rate range into one job per rate
//	GET  /metrics      Prometheus text exposition (JSON via Accept:
//	                   application/json)
//	GET  /metrics.json the JSON metrics document
//	GET  /healthz      liveness: 200 while the process serves at all
//	GET  /readyz       readiness: 503 while draining or queue-saturated, so
//	                   load balancers stop routing here before requests fail
//
// Every response carries an X-Request-ID header — echoing the client's, or
// minted here — and the same ID is propagated through the request context
// into the scheduler for job-trace correlation. One access-log line is
// emitted per request.
type Server struct {
	sched *Scheduler
	shell *HTTPShell
}

// NewServer wires the routes and the metrics registry.
func NewServer(sched *Scheduler) *Server {
	reg := newMetricsRegistry(sched)
	s := &Server{sched: sched, shell: NewHTTPShell(reg, "simsvc", log.Default())}
	s.shell.HandleFunc("POST /v1/runs", s.handleSubmit)
	s.shell.HandleFunc("GET /v1/runs/{id}", s.handleGet)
	s.shell.HandleFunc("POST /v1/sweeps", s.handleSweep)
	s.shell.HandleMetrics(reg, func(w http.ResponseWriter, r *http.Request) {
		s.writeJSON(w, http.StatusOK, s.sched.Metrics())
	})
	s.shell.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if ok, reason := s.sched.Ready(); !ok {
			s.writeJSON(w, http.StatusServiceUnavailable, APIError{Error: "not ready: " + reason})
			return
		}
		s.writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	return s
}

// SetLogger replaces the access/error logger (default log.Default()); tests
// use it to silence per-request lines.
func (s *Server) SetLogger(l *log.Logger) { s.shell.Logger = l }

// ServeHTTP implements http.Handler through the shared shell: request-ID
// stamping, routing, then access logging and request metrics.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.shell.ServeHTTP(w, r) }

// MaxBodyBytes bounds request bodies: the largest legitimate spec (a sweep
// with a long fault plan) is a few kilobytes, so 1 MiB leaves two orders of
// magnitude of headroom while preventing an oversized client from pinning a
// connection and buffering without limit.
const MaxBodyBytes = 1 << 20

// decodeBody reads a request body of at most MaxBodyBytes into v, refusing
// unknown fields.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		// The hint tracks reality — queue depth × observed p50 job latency,
		// clamped to [1, 30]s — so clients (and the ring coordinator, which
		// honors it when scheduling retries) back off proportionally to the
		// actual backlog instead of polling a saturated queue every second.
		w.Header().Set("Retry-After", strconv.Itoa(s.sched.RetryAfterSeconds()))
	}
	s.shell.WriteJSON(w, status, v)
}

// submitStatus maps a submission error to its HTTP status.
func submitStatus(err error) int {
	switch {
	case err == nil:
		return http.StatusAccepted
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := readSpec(w, r)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, APIError{Error: "bad spec: " + err.Error()})
		return
	}
	job, err := s.sched.Submit(r.Context(), spec)
	if err != nil {
		s.writeJSON(w, submitStatus(err), APIError{Error: err.Error()})
		return
	}
	status := http.StatusAccepted
	if job.Status == StatusDone {
		status = http.StatusOK
	}
	s.writeJob(w, status, job)
}

// readSpec reads a request body of at most MaxBodyBytes into a pooled buffer
// and decodes it with DecodeSpec, which keeps none of it.
func readSpec(w http.ResponseWriter, r *http.Request) (RunSpec, error) {
	body := replyPool.Get().(*reply)
	defer body.free()
	if _, err := body.buf.ReadFrom(http.MaxBytesReader(w, r.Body, MaxBodyBytes)); err != nil {
		return RunSpec{}, err
	}
	return DecodeSpec(body.buf.Bytes())
}

// writeJob writes a job. Its result, if it has one, is a stored payload and
// goes out by the shell's writeResult, the encoder seeing the job without it.
// A job whose store entry holds both its renderings — every cache hit — is
// written without the encoder: its own members are appended here as the
// indenting encoder writes them, around the entry's spec echo.
func (s *Server) writeJob(w http.ResponseWriter, status int, job JobView) {
	payload := job.Result
	job.Result = nil
	if job.echo == nil {
		s.shell.writeResult(w, status, job, payload, job.rendered)
		return
	}
	r := replyPool.Get().(*reply)
	defer r.free()
	b := appendJSONString(append(r.buf.AvailableBuffer(), "{\n  \"id\": "...), job.ID)
	b = appendJSONString(append(b, ",\n  \"spec_hash\": "...), job.SpecHash)
	b = append(b, job.echo...)
	b = appendJSONString(append(b, ",\n  \"status\": "...), string(job.Status))
	b = strconv.AppendBool(append(b, ",\n  \"cached\": "...), job.Cached)
	if job.Error != "" {
		b = appendJSONString(append(b, ",\n  \"error\": "...), job.Error)
	}
	if job.RequestID != "" {
		b = appendJSONString(append(b, ",\n  \"request_id\": "...), job.RequestID)
	}
	if len(job.Spans) > 0 {
		b = append(b, ",\n  \"spans\": ["...)
		for i, sp := range job.Spans {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(append(b, "\n    {\n      \"name\": "...), sp.Name)
			b = strconv.AppendInt(append(b, ",\n      \"dur_us\": "...), sp.DurUS, 10)
			b = append(b, "\n    }"...)
		}
		b = append(b, "\n  ]"...)
	}
	r.buf.Write(b)
	s.shell.send(w, status, r, r.end(payload, job.rendered))
}

// renderSpec is a JobView's member "spec" as writeJob places it — a comma and
// the member, as the encoder writes it one level deep — or nil if spec does
// not encode.
func renderSpec(spec RunSpec) []byte {
	r := replyPool.Get().(*reply)
	defer r.free()
	if r.extend(struct {
		Spec RunSpec `json:"spec"`
	}{spec}) != nil {
		return nil
	}
	return bytes.Clone(r.buf.Bytes())
}

// CachedView is the body of a content-addressed GET /v1/runs/{hash}: the
// cached Result for a spec hash with no job identity attached. The cluster
// coordinator reads it to answer by hash and to finish a job whose shard is
// gone; any shard's copy is byte-equivalent.
//
// Result is the last field, and present in every CachedView the server writes:
// handleGet has the encoder write the others and the result after them.
type CachedView struct {
	SpecHash string          `json:"spec_hash"`
	Status   Status          `json:"status"`
	Cached   bool            `json:"cached"`
	Result   json.RawMessage `json:"result,omitempty"`
}

// IsSpecHash reports whether id is shaped like a spec hash (16 lowercase
// hex digits) rather than a job ID (j-NNNNNN), selecting the
// content-addressed read path in handleGet.
func IsSpecHash(id string) bool {
	if len(id) != 16 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if IsSpecHash(id) {
		e, ok := s.sched.cfg.Store.lookup(id, nil)
		if !ok {
			s.writeJSON(w, http.StatusNotFound, APIError{Error: "no cached result for spec " + id})
			return
		}
		s.shell.writeResult(w, http.StatusOK,
			CachedView{SpecHash: id, Status: StatusDone, Cached: true}, e.payload, e.rendered)
		return
	}
	job, ok := s.sched.Job(id)
	if !ok {
		s.writeJSON(w, http.StatusNotFound, APIError{Error: "unknown job " + id})
		return
	}
	s.writeJob(w, http.StatusOK, job)
}

// SweepRequest expands into one job per applied-load rate: either an
// explicit rate list, or a [from, to] range divided into steps points.
// Exported so the ring coordinator can expand a sweep itself and scatter
// each point to the shard that owns its spec hash.
type SweepRequest struct {
	Spec  RunSpec   `json:"spec"`
	Rates []float64 `json:"rates,omitempty"`
	From  float64   `json:"from,omitempty"`
	To    float64   `json:"to,omitempty"`
	Steps int       `json:"steps,omitempty"`
}

// Expand resolves the rate ladder.
func (r SweepRequest) Expand() ([]float64, error) {
	if len(r.Rates) > 0 {
		if r.From != 0 || r.To != 0 || r.Steps != 0 {
			return nil, fmt.Errorf("simsvc: give either rates or from/to/steps, not both")
		}
		return r.Rates, nil
	}
	if r.Steps < 2 {
		return nil, fmt.Errorf("simsvc: sweep needs at least 2 steps, got %d", r.Steps)
	}
	if !(r.From > 0) || !(r.To > r.From) || r.To > 1 {
		return nil, fmt.Errorf("simsvc: sweep range wants 0 < from < to <= 1, got [%g, %g]", r.From, r.To)
	}
	rates := make([]float64, r.Steps)
	for i := range rates {
		rates[i] = r.From + (r.To-r.From)*float64(i)/float64(r.Steps-1)
	}
	return rates, nil
}

// DecodeSweep reads a sweep request and resolves its rate ladder.
func DecodeSweep(w http.ResponseWriter, r *http.Request) (SweepRequest, []float64, error) {
	var req SweepRequest
	if err := decodeBody(w, r, &req); err != nil {
		return req, nil, fmt.Errorf("bad sweep: %w", err)
	}
	if req.Spec.TraceApp != "" {
		return req, nil, errors.New("simsvc: trace runs have no load rate to sweep")
	}
	rates, err := req.Expand()
	return req, rates, err
}

// SweepResponse lists the outcome per expanded rate. A single shard stops
// submitting at the first queue-full/draining rejection — the remaining rates
// are reported as rejected and the whole response carries that status code, so
// a client retries the leftover suffix after backing off.
type SweepResponse struct {
	Jobs []SweepEntry `json:"jobs"`
}

type SweepEntry struct {
	Rate  float64 `json:"rate"`
	ID    string  `json:"id,omitempty"`
	Error string  `json:"error,omitempty"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	req, rates, err := DecodeSweep(w, r)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, APIError{Error: err.Error()})
		return
	}
	resp := SweepResponse{Jobs: make([]SweepEntry, 0, len(rates))}
	status := http.StatusAccepted
	for i, rate := range rates {
		spec := req.Spec
		spec.Rate = rate
		job, err := s.sched.Submit(r.Context(), spec)
		if err != nil {
			status = submitStatus(err)
			for _, rest := range rates[i:] {
				resp.Jobs = append(resp.Jobs, SweepEntry{Rate: rest, Error: err.Error()})
			}
			break
		}
		resp.Jobs = append(resp.Jobs, SweepEntry{Rate: rate, ID: job.ID})
	}
	s.writeJSON(w, status, resp)
}
