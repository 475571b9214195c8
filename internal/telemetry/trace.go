package telemetry

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync/atomic"
	"time"
)

// A request ID ties a client's request to the job it submits: the HTTP shell
// echoes or mints one per request and puts it in the response header, from
// which the handlers hand it to the scheduler, so one request can be followed
// from the access log to the job's view and its record in the served trace,
// both of which carry the ID and the job's spans.

// reqFallback seeds request IDs if the system entropy source ever fails;
// uniqueness (not unpredictability) is all an ID needs.
var reqFallback atomic.Uint64

// NewRequestID returns a 16-hex-digit request identifier.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		binary.BigEndian.PutUint64(b[:], uint64(time.Now().UnixNano())+reqFallback.Add(1)<<40)
	}
	var id [16]byte
	hex.Encode(id[:], b[:])
	return string(id[:])
}

// Span is one named, timed segment of a larger unit of work. Durations are
// integer microseconds: coarse enough to marshal compactly, fine enough for
// queue waits and encode times.
type Span struct {
	Name  string `json:"name"`
	DurUS int64  `json:"dur_us"`
}
