package simsvc

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
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

	name     string
	routes   []string // route labels; a recorder holds an index, 0 is "other"
	methods  []string // the methods the routes' patterns name
	mux      *http.ServeMux
	requests *telemetry.CounterVec
	duration *telemetry.Histogram
}

// RequestIDHeader is the request-ID header in its canonical form, so that
// neither reading nor writing it canonicalises the key again.
const RequestIDHeader = "X-Request-Id"

// maxRequestIDLen bounds the client request IDs the shell keeps. The ID is
// echoed, logged and kept in the record of every job it submits, so a longer
// one is replaced by a minted ID rather than held.
const maxRequestIDLen = 64

// NewHTTPShell builds a shell that logs as name, registers
// <name>_http_requests_total and <name>_http_request_duration_seconds on reg,
// and serves GET /healthz: liveness, 200 while the process serves at all.
func NewHTTPShell(reg *telemetry.Registry, name string, logger *log.Logger) *HTTPShell {
	h := &HTTPShell{
		Logger: logger,
		name:   name,
		routes: []string{"other"},
		mux:    http.NewServeMux(),
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
// The path, as the pattern spells it, is the request counter's route label,
// and the method is one value of its method label; a request no pattern
// matches counts under route "other", and one whose method no pattern names
// under method "other", so each label takes one value more than the patterns
// spell, whatever clients ask for.
func (h *HTTPShell) HandleFunc(pattern string, fn http.HandlerFunc) {
	route := int32(len(h.routes))
	method, path, _ := strings.Cut(pattern, " ")
	h.routes = append(h.routes, path)
	if !slices.Contains(h.methods, method) {
		h.methods = append(h.methods, method)
	}
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
	rid := r.Header.Get(RequestIDHeader)
	if rid == "" || len(rid) > maxRequestIDLen {
		rid = telemetry.NewRequestID()
	}
	w.Header().Set(RequestIDHeader, rid)
	r = r.WithContext(telemetry.WithRequestID(r.Context(), rid))

	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	h.mux.ServeHTTP(rec, r)

	elapsed := time.Since(start)
	h.requests.With(h.methodLabel(r.Method), h.routes[rec.route], codeLabel(rec.status)).Inc()
	h.duration.Observe(elapsed.Seconds())
	var line [256]byte
	h.Logger.Output(1, string(appendAccessLog(line[:0], h.name, r.RemoteAddr, r.Method, r.URL.Path,
		int(rec.status), rec.bytes, elapsed, rid)))
}

// methodLabel is method if a registered pattern names it, else "other".
func (h *HTTPShell) methodLabel(method string) string {
	if slices.Contains(h.methods, method) {
		return method
	}
	return "other"
}

// codeLabels spells every status code net/http lets a handler write, 100 to
// 999, in three bytes each, so that labelling a request by its code allocates
// nothing.
var codeLabels = func() string {
	b := make([]byte, 0, 3*900)
	for code := 100; code <= 999; code++ {
		b = strconv.AppendInt(b, int64(code), 10)
	}
	return string(b)
}()

// codeLabel is code in decimal.
func codeLabel(code int32) string {
	if code < 100 || code > 999 {
		return strconv.Itoa(int(code))
	}
	i := 3 * (code - 100)
	return codeLabels[i : i+3]
}

// appendAccessLog appends a request's access-log line to dst: the bytes
// fmt's "<name>: %s %s %s %d %dB %s req=%s" writes for the remote address,
// method, path, status, body size, elapsed rounded to the microsecond, and
// request ID (FuzzAccessLog).
func appendAccessLog(dst []byte, name, remote, method, path string, status int, size int64, elapsed time.Duration, rid string) []byte {
	dst = append(append(dst, name...), ": "...)
	dst = append(append(dst, remote...), ' ')
	dst = append(append(dst, method...), ' ')
	dst = append(append(dst, path...), ' ')
	dst = append(strconv.AppendInt(dst, int64(status), 10), ' ')
	dst = append(strconv.AppendInt(dst, size, 10), "B "...)
	dst = append(dst, elapsed.Round(time.Microsecond).String()...)
	return append(append(dst, " req="...), rid...)
}

// APIError is the uniform error body.
type APIError struct {
	Error string `json:"error"`
}

// WriteJSON writes v, indented, as the response body under status. Headers the
// caller set beforehand (Retry-After) go out with it. A v that does not encode
// is answered 500 with an APIError body.
func (h *HTTPShell) WriteJSON(w http.ResponseWriter, status int, v any) {
	h.writeResult(w, status, v, nil, nil)
}

// reply is what a response body is built in before any of it is written — so
// a value that fails to encode can still change the status — and the indenting
// encoder that fills it. esc is appendResult's scratch. A submitted spec is
// read into a reply's buf too (readSpec).
type reply struct {
	buf, esc bytes.Buffer
	enc      *json.Encoder
}

var replyPool = sync.Pool{New: func() any {
	r := new(reply)
	r.enc = json.NewEncoder(&r.buf)
	r.enc.SetIndent("", "  ")
	return r
}}

// free returns r to the pool, unless one large body (a sweep, a cluster status)
// grew it past what the next hundred replies need.
func (r *reply) free() {
	if r.buf.Cap()+r.esc.Cap() <= 64<<10 {
		r.buf.Reset()
		replyPool.Put(r)
	}
}

const (
	replyEnd     = "\n}\n"             // how the encoder closes a top-level object
	resultMember = ",\n  \"result\": " // what it puts between the last member and a "result" after it
)

// appendResult appends payload to dst as the indenting encoder writes a
// json.RawMessage member of the top-level object: white space dropped,
// re-indented one level in, and <, >, &, U+2028 and U+2029 escaped. esc is
// scratch. A payload that is not exactly one JSON document is an error and
// leaves dst as it was.
func appendResult(dst, esc *bytes.Buffer, payload []byte) error {
	esc.Reset()
	// Indent copies white space after the document through; the encoder
	// drops it. Indent goes first because it is what validates: escaping
	// the & of an invalid `\&` would make a valid `\\u0026` of it.
	if err := json.Indent(esc, bytes.TrimRight(payload, " \t\r\n"), "  ", "  "); err != nil {
		return err
	}
	json.HTMLEscape(dst, esc.Bytes())
	return nil
}

// renderResult is appendResult into a slice of its own, for a store entry to keep.
func renderResult(payload []byte) ([]byte, error) {
	r := replyPool.Get().(*reply)
	defer r.free()
	if err := appendResult(&r.buf, &r.esc, payload); err != nil {
		return nil, err
	}
	return bytes.Clone(r.buf.Bytes()), nil
}

// writeResult is WriteJSON for a v that encodes to an object with at least one
// member and no "result", followed — unless payload is empty, which the
// structs' omitempty leaves out — by the member
// "result": a stored payload, in the form rendered if its store entry has one
// and rendered here, into the same buffer, if not. The bytes are those
// WriteJSON writes for the same struct with the payload as its last field, a
// json.RawMessage; the encoder is not asked to compact, escape and indent
// again what no request changes.
func (h *HTTPShell) writeResult(w http.ResponseWriter, status int, v any, payload, rendered []byte) {
	r := replyPool.Get().(*reply)
	defer r.free()
	err := r.begin(v)
	if err == nil {
		err = r.end(payload, rendered)
	}
	h.send(w, status, r, err)
}

// begin has the encoder write v, which encodes to an object with at least one
// member, and leaves the object open after its last member.
func (r *reply) begin(v any) error {
	if err := r.enc.Encode(v); err != nil {
		return err
	}
	r.buf.Truncate(r.buf.Len() - len(replyEnd))
	return nil
}

// extend has the encoder write the members of v, which encodes to an object
// with at least one, after those of the object open in r.buf, and leaves it
// open: the encoder's opening brace becomes the comma after the member before.
// Members are written at the depth of the top-level object's.
func (r *reply) extend(v any) error {
	at := r.buf.Len()
	if err := r.enc.Encode(v); err != nil {
		return err
	}
	r.buf.Bytes()[at] = ','
	r.buf.Truncate(r.buf.Len() - len(replyEnd))
	return nil
}

// end closes the object open in r.buf, after the member "result": payload,
// unless payload is empty (writeResult says how).
func (r *reply) end(payload, rendered []byte) error {
	var err error
	if len(payload) != 0 {
		r.buf.WriteString(resultMember)
		if rendered != nil {
			r.buf.Write(rendered)
		} else {
			err = appendResult(&r.buf, &r.esc, payload)
		}
	}
	r.buf.WriteString(replyEnd)
	return err
}

// send writes the body built in r under status or, if err says it could not be
// built, an APIError saying why under 500.
func (h *HTTPShell) send(w http.ResponseWriter, status int, r *reply, err error) {
	if err != nil {
		h.Logger.Printf("%s: encode %d response: %v", h.name, status, err)
		status = http.StatusInternalServerError
		r.buf.Reset()
		r.enc.Encode(APIError{Error: "response does not encode: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(r.buf.Bytes()); err != nil {
		// Too late to change the status line; the broken connection must
		// not vanish silently.
		h.Logger.Printf("%s: write %d response: %v", h.name, status, err)
	}
}
