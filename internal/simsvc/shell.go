package simsvc

import (
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// HTTPShell is the layer every server in the repository (Server here,
// cluster.Coordinator) wraps around its routes. Per request it echoes or mints
// the X-Request-ID and carries it in the request context, routes, then counts
// the request by method, route and status code, observes its duration and
// writes one access-log line.
type HTTPShell struct {
	// Logger receives the access log and response-encoding errors.
	Logger *log.Logger

	name      string
	accessLog string   // the access-log format, name included
	routes    []string // route labels; a recorder holds an index, 0 is "other"
	mux       *http.ServeMux
	requests  *telemetry.CounterVec
	duration  *telemetry.Histogram
}

// NewHTTPShell builds a shell that logs as name, registers
// <name>_http_requests_total and <name>_http_request_duration_seconds on reg,
// and serves GET /healthz: liveness, 200 while the process serves at all.
func NewHTTPShell(reg *telemetry.Registry, name string, logger *log.Logger) *HTTPShell {
	h := &HTTPShell{
		Logger:    logger,
		name:      name,
		accessLog: name + ": %s %s %s %d %dB %s req=%s",
		routes:    []string{"other"},
		mux:       http.NewServeMux(),
		requests: reg.CounterVec(name+"_http_requests_total",
			"HTTP requests served, by method, route, and status code.",
			"method", "route", "code"),
		duration: reg.Histogram(name+"_http_request_duration_seconds",
			"HTTP request handling time, any proxied hop included.", telemetry.DurationBuckets()...),
	}
	h.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		h.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return h
}

// HandleMetrics registers GET /metrics — reg's Prometheus text exposition, or
// the JSON document for a client that asks for application/json, so
// pre-existing JSON scrapers keep working by content negotiation — and GET
// /metrics.json, the JSON document itself.
func (h *HTTPShell) HandleMetrics(reg *telemetry.Registry, asJSON http.HandlerFunc) {
	h.HandleFunc("GET /metrics.json", asJSON)
	h.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		if strings.Contains(r.Header.Get("Accept"), "application/json") {
			asJSON(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WritePrometheus(w); err != nil && !errors.Is(err, io.ErrShortWrite) {
			h.Logger.Printf("%s: write metrics: %v", h.name, err)
		}
	})
}

// HandleFunc registers fn under a ServeMux pattern of the form "METHOD /path".
// The path, as the pattern spells it, is the request counter's route label; a
// request no pattern matches counts under "other", so the label takes one
// value more than there are routes, whatever clients ask for.
func (h *HTTPShell) HandleFunc(pattern string, fn http.HandlerFunc) {
	route := int32(len(h.routes))
	h.routes = append(h.routes, pattern[strings.IndexByte(pattern, ' ')+1:])
	h.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		w.(*statusRecorder).route = route
		fn(w, r)
	})
}

// statusRecorder captures the matched route, the status code and the body size
// a handler wrote, for the access log and the request metrics. One is
// allocated per request, so it is kept to 32 bytes.
type statusRecorder struct {
	http.ResponseWriter
	bytes  int64
	status int32
	route  int32
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = int32(code)
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

// ServeHTTP implements http.Handler.
func (h *HTTPShell) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rid := r.Header.Get("X-Request-ID")
	if rid == "" {
		rid = telemetry.NewRequestID()
	}
	w.Header().Set("X-Request-ID", rid)
	r = r.WithContext(telemetry.WithRequestID(r.Context(), rid))

	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	h.mux.ServeHTTP(rec, r)

	elapsed := time.Since(start)
	h.requests.With(r.Method, h.routes[rec.route], strconv.Itoa(int(rec.status))).Inc()
	h.duration.Observe(elapsed.Seconds())
	h.Logger.Printf(h.accessLog, r.RemoteAddr, r.Method, r.URL.Path, rec.status, rec.bytes,
		elapsed.Round(time.Microsecond), rid)
}

// APIError is the uniform error body.
type APIError struct {
	Error string `json:"error"`
}

// WriteJSON writes v, indented, as the response body under status. Headers the
// caller set beforehand (Retry-After) go out with it.
func (h *HTTPShell) WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// Too late to change the status line; the broken connection or
		// unmarshalable value must not vanish silently.
		h.Logger.Printf("%s: encode %d response: %v", h.name, status, err)
	}
}
