package simsvc

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

// TraceWriter is the file behind simserve -trace: JSON lines, each naming its
// job under the key "job". A line is either a machine event — one obs.Event of
// that job's simulation, on the simulation's cycle clock — or a job record,
// written once when the job finishes, with what the program did for it on the
// wall clock. Workers write concurrently; lines never interleave. A nil
// *TraceWriter records nothing.
type TraceWriter struct {
	mu  sync.Mutex
	w   *bufio.Writer
	enc *json.Encoder
}

// NewTraceWriter builds a trace writer over w.
func NewTraceWriter(w io.Writer) *TraceWriter {
	bw := bufio.NewWriter(w)
	return &TraceWriter{w: bw, enc: json.NewEncoder(bw)}
}

// jobEvent is the machine-event line: the event's own keys after the job's.
type jobEvent struct {
	Job string `json:"job"`
	obs.Event
}

// jobRecord is the job line: a JobView without its spec and result.
type jobRecord struct {
	Job       string           `json:"job"`
	SpecHash  string           `json:"spec_hash"`
	Status    Status           `json:"status"`
	Cached    bool             `json:"cached"`
	Error     string           `json:"error,omitempty"`
	RequestID string           `json:"request_id,omitempty"`
	Spans     []telemetry.Span `json:"spans,omitempty"`
}

// jobSink is the sink on one job's bus: it stamps the simulation's events with
// the job's ID.
type jobSink struct {
	t   *TraceWriter
	job string
}

func (s jobSink) Event(e obs.Event) {
	s.t.mu.Lock()
	s.t.enc.Encode(jobEvent{s.job, e})
	s.t.mu.Unlock()
}

// job writes a finished job's record and flushes, so the file is whole up to
// the last finished job.
func (t *TraceWriter) job(v JobView) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.enc.Encode(jobRecord{v.ID, v.SpecHash, v.Status, v.Cached, v.Error, v.RequestID, v.Spans})
	t.w.Flush()
	t.mu.Unlock()
}

// Close flushes buffered lines.
func (t *TraceWriter) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.w.Flush()
}
