package simsvc

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// accessLogFormat is the access-log line as fmt wrote it, the server's name
// first.
const accessLogFormat = "%s: %s %s %s %d %dB %s req=%s"

// FuzzAccessLog holds the hand-built access-log line to fmt's bytes for the
// same request: any remote address, method, path, status, body size, request
// ID and duration, zero, below a microsecond, past an hour and negative
// included.
func FuzzAccessLog(f *testing.F) {
	f.Add("simsvc", "192.0.2.1:1234", "POST", "/v1/runs", 200, int64(1234), int64(7*time.Microsecond+400), "0123456789abcdef")
	f.Add("simring", "[::1]:80", "GET", "/v1/runs/{id}", 404, int64(0), int64(0), "")
	f.Add("simsvc", "", "JUNK", "/no/such/é\xff", 999, int64(-1), int64(499), "<&> ")
	f.Add("simsvc", "@", "M0", "/", 100, int64(math.MaxInt64), int64(time.Hour+time.Minute+500*time.Nanosecond), "x")
	f.Add("simsvc", "a b", "GET", "/metrics", -5, int64(math.MinInt64), int64(-1500*time.Microsecond), "req=")
	f.Add("s", "r", "m", "p", math.MaxInt32, int64(1), int64(math.MaxInt64), "%s")
	f.Add("s", "r", "m", "p", math.MinInt32, int64(1), int64(math.MinInt64), "%!d")
	f.Fuzz(func(t *testing.T, name, remote, method, path string, status int, size, elapsed int64, rid string) {
		d := time.Duration(elapsed)
		want := fmt.Sprintf(accessLogFormat, name, remote, method, path, status, size, d.Round(time.Microsecond), rid)
		if got := appendAccessLog(nil, name, remote, method, path, status, size, d, rid); string(got) != want {
			t.Errorf("line %q, fmt writes %q", got, want)
		}
	})
}

// TestAccessLogLine: a request served through the shell logs one line, the
// one appendAccessLog spells for it, through the logger's prefix and flags.
func TestAccessLogLine(t *testing.T) {
	var logged bytes.Buffer
	store, _ := NewStore(16, "")
	sched := NewScheduler(SchedConfig{Store: store})
	t.Cleanup(func() { sched.Drain(context.Background()) })
	api := NewServer(sched)
	api.SetLogger(log.New(&logged, "prefix ", log.Lmsgprefix))
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	req.RemoteAddr = "192.0.2.1:1234"
	req.Header.Set("X-Request-ID", "client-id")
	w := httptest.NewRecorder()
	api.ServeHTTP(w, req)

	line := logged.String()
	head := "prefix simsvc: 192.0.2.1:1234 GET /healthz 200 " + strconv.Itoa(w.Body.Len()) + "B "
	if !strings.HasPrefix(line, head) || !strings.HasSuffix(line, "s req=client-id\n") || strings.Count(line, "\n") != 1 {
		t.Errorf("access log %q, want %q, a duration and %q", line, head, "s req=client-id\n")
	}
}
