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

func (s jobSink) Event(e obs.Event) { s.t.write(jobEvent{s.job, e}, false) }

// job writes a finished job's record and flushes, so the file is whole up to
// the last finished job.
func (t *TraceWriter) job(v JobView) {
	if t != nil {
		t.write(jobRecord{v.ID, v.SpecHash, v.Status, v.Cached, v.Error, v.RequestID, v.Spans}, true)
	}
}

// write encodes one line. A failed write sticks in the buffered writer and
// comes back from Close.
func (t *TraceWriter) write(line any, flush bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.enc.Encode(line)
	if flush {
		t.w.Flush()
	}
}

// Close flushes buffered lines and reports the first write error, if any.
func (t *TraceWriter) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.w.Flush()
}
