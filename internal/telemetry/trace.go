package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// Request identity and span-style timings travel through contexts: the HTTP
// layer mints an ID per request and the scheduler carries it to the job, so
// one request can be followed from the access log to the job's view and its
// record in the served trace, both of which carry the ID and the spans.

type ridKey struct{}

// reqFallback seeds request IDs if the system entropy source ever fails;
// uniqueness (not unpredictability) is all an ID needs.
var reqFallback atomic.Uint64

// NewRequestID returns a 16-hex-digit request identifier.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		binary.BigEndian.PutUint64(b[:], uint64(time.Now().UnixNano())+reqFallback.Add(1)<<40)
	}
	return hex.EncodeToString(b[:])
}

// WithRequestID stamps ctx with a request ID.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, ridKey{}, id)
}

// RequestID returns the ID stamped on ctx, or "" when the work did not
// originate from an identified request.
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(ridKey{}).(string)
	return id
}

// Span is one named, timed segment of a larger unit of work. Durations are
// integer microseconds: coarse enough to marshal compactly, fine enough for
// queue waits and encode times.
type Span struct {
	Name  string `json:"name"`
	DurUS int64  `json:"dur_us"`
}

// Spans collects spans for one unit of work (a served job). Repeated Adds
// under one name accumulate, so a retried execute reads as one total rather
// than an unbounded list. Safe for concurrent use.
type Spans struct {
	mu    sync.Mutex
	spans []Span
}

// NewSpans returns an empty collector.
func NewSpans() *Spans { return &Spans{} }

// Add records d under name.
func (s *Spans) Add(name string, d time.Duration) {
	if s == nil {
		return
	}
	us := d.Microseconds()
	s.mu.Lock()
	for i := range s.spans {
		if s.spans[i].Name == name {
			s.spans[i].DurUS += us
			s.mu.Unlock()
			return
		}
	}
	s.spans = append(s.spans, Span{Name: name, DurUS: us})
	s.mu.Unlock()
}

// List returns a copy of the collected spans in first-recorded order.
func (s *Spans) List() []Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Span(nil), s.spans...)
}

type spansKey struct{}

// WithSpans attaches a span collector to ctx so deeper layers (the result
// encoder, the executor) can attribute their time without threading the
// collector explicitly.
func WithSpans(ctx context.Context, s *Spans) context.Context {
	return context.WithValue(ctx, spansKey{}, s)
}

// AddSpan records d under name on ctx's collector; a no-op without one.
func AddSpan(ctx context.Context, name string, d time.Duration) {
	s, _ := ctx.Value(spansKey{}).(*Spans)
	s.Add(name, d)
}
