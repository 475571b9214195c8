package simsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"
)

// newTestServer wires a scheduler behind httptest and tears both down.
func newTestServer(t *testing.T, cfg SchedConfig) (*httptest.Server, *Scheduler) {
	t.Helper()
	if cfg.Store == nil {
		cfg.Store, _ = NewStore(16, "")
	}
	sched := NewScheduler(cfg)
	api := NewServer(sched)
	api.SetLogger(log.New(io.Discard, "", 0))
	srv := httptest.NewServer(api)
	t.Cleanup(func() {
		srv.Close()
		sched.Drain(context.Background())
	})
	return srv, sched
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

const tinySpecJSON = `{"scheme":"PR","pattern":"PAT271","radix":[2,2],"rate":0.02,"warmup":-1,"measure":500}`

func TestHTTPSubmitPollFetch(t *testing.T) {
	srv, _ := newTestServer(t, SchedConfig{Workers: 2, QueueDepth: 8})

	resp, body := postJSON(t, srv.URL+"/v1/runs", tinySpecJSON)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.ID == "" || v.SpecHash == "" {
		t.Fatalf("submit response missing id/hash: %s", body)
	}

	var done JobView
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, body := getJSON(t, srv.URL+"/v1/runs/"+v.ID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll: %d %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &done); err != nil {
			t.Fatal(err)
		}
		if done.Status == StatusDone {
			break
		}
		if done.Status == StatusFailed || time.Now().After(deadline) {
			t.Fatalf("job did not complete: %s", body)
		}
		time.Sleep(time.Millisecond)
	}
	var r Result
	if err := json.Unmarshal(done.Result, &r); err != nil {
		t.Fatalf("result payload: %v in %s", err, done.Result)
	}
	if r.SpecHash != v.SpecHash || r.Summary.Digest == "" {
		t.Errorf("result inconsistent: hash %q vs %q, digest %q", r.SpecHash, v.SpecHash, r.Summary.Digest)
	}

	// Resubmitting the identical spec is answered 200 from the cache with a
	// byte-identical result payload.
	resp2, body2 := postJSON(t, srv.URL+"/v1/runs", tinySpecJSON)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat submit: %d %s", resp2.StatusCode, body2)
	}
	var repeat JobView
	if err := json.Unmarshal(body2, &repeat); err != nil {
		t.Fatal(err)
	}
	if !repeat.Cached || repeat.Status != StatusDone {
		t.Errorf("repeat submit not served from cache: %s", body2)
	}
	if !bytes.Equal(repeat.Result, done.Result) {
		t.Errorf("cached HTTP result not byte-identical:\n%s\nvs\n%s", repeat.Result, done.Result)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	srv, _ := newTestServer(t, SchedConfig{Workers: 1, QueueDepth: 4})

	for name, c := range map[string]struct{ body, limit string }{
		"malformed json": {`{"scheme":`, ""},
		"unknown field":  {`{"scheme":"PR","frobnicate":1}`, ""},
		"invalid spec":   {`{"scheme":"bogus"}`, ""},
		"bad rate":       {`{"rate":2.0}`, ""},
		"too many vcs":   {`{"vcs":65}`, "VCs: 65 virtual channels per link exceed the limit of 64"}, // was 202, then "job panicked" in router.NewChannel
		"deep flitbuf":   {`{"radix":[2,2],"flitbuf":65536}`, "FlitBuf: 65536-flit VC buffers exceed the limit of 65535"},
	} {
		resp, b := postJSON(t, srv.URL+"/v1/runs", c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, resp.StatusCode, b)
		}
		var e APIError
		if err := json.Unmarshal(b, &e); err != nil || e.Error == "" {
			t.Errorf("%s: no error body: %s", name, b)
		}
		if !strings.Contains(e.Error, c.limit) {
			t.Errorf("%s: error %q does not name the limit (%q)", name, e.Error, c.limit)
		}
	}

	if resp, _ := getJSON(t, srv.URL+"/v1/runs/j-999999"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

// TestHTTPHostileSizes: a spec asking for a system beyond network.MaxSystemSlots
// (or whose router count overflows int) used to normalise, hash and queue, and
// then take the whole server down with an out-of-memory fatal error in
// Network.build, which no recover catches. Each must answer 400 naming the
// field as network.Config spells it, and the server must go on serving.
func TestHTTPHostileSizes(t *testing.T) {
	srv, _ := newTestServer(t, SchedConfig{Workers: 1, QueueDepth: 4})
	for body, field := range map[string]string{
		`{"radix":[1048576,1048576]}`:       "Radix",
		`{"radix":[4294967296,4294967296]}`: "Radix", // the product overflows int
		`{"bristling":1000000}`:             "Bristling",
		`{"queue_cap":2000000000}`:          "QueueCap",
		`{"flitbuf":2000000000}`:            "FlitBuf",
	} {
		resp, b := postJSON(t, srv.URL+"/v1/runs", body)
		var e APIError
		if err := json.Unmarshal(b, &e); err != nil || resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, field) {
			t.Errorf("%s: status %d, body %s; want 400 naming %s", body, resp.StatusCode, b, field)
		}
	}
	resp, b := postJSON(t, srv.URL+"/v1/runs", tinySpecJSON)
	var v JobView
	if err := json.Unmarshal(b, &v); err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("valid spec after the hostile ones: status %d, body %s", resp.StatusCode, b)
	}
	for deadline := time.Now().Add(20 * time.Second); v.Status != StatusDone; time.Sleep(time.Millisecond) {
		_, b := getJSON(t, srv.URL+"/v1/runs/"+v.ID)
		if err := json.Unmarshal(b, &v); err != nil || v.Status == StatusFailed || time.Now().After(deadline) {
			t.Fatalf("valid job did not complete: %v %s", err, b)
		}
	}
}

func TestHTTPQueueFull429(t *testing.T) {
	srv, sched := newTestServer(t, SchedConfig{Workers: 1, QueueDepth: 1})

	// Occupy the worker, then the single queue slot, with distinct specs.
	first, err := sched.Submit(context.Background(), slowSpec(21))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, sched, first.ID)
	if _, err := sched.Submit(context.Background(), slowSpec(22)); err != nil {
		t.Fatal(err)
	}

	resp, body := postJSON(t, srv.URL+"/v1/runs",
		`{"scheme":"PR","pattern":"PAT271","radix":[4,4],"rate":0.02,"warmup":-1,"measure":30000,"seed":23}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue: status %d, want 429 (%s)", resp.StatusCode, body)
	}
}

func TestHTTPSweep(t *testing.T) {
	srv, _ := newTestServer(t, SchedConfig{Workers: 2, QueueDepth: 16})

	resp, body := postJSON(t, srv.URL+"/v1/sweeps",
		`{"spec":`+tinySpecJSON+`,"from":0.01,"to":0.04,"steps":4}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep: %d %s", resp.StatusCode, body)
	}
	var sr SweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Jobs) != 4 {
		t.Fatalf("sweep expanded to %d jobs, want 4", len(sr.Jobs))
	}
	seen := map[string]bool{}
	for i, j := range sr.Jobs {
		if j.ID == "" || j.Error != "" {
			t.Errorf("sweep job %d rejected: %+v", i, j)
		}
		if seen[j.ID] {
			t.Errorf("duplicate job id %s", j.ID)
		}
		seen[j.ID] = true
	}
	if sr.Jobs[0].Rate != 0.01 || sr.Jobs[3].Rate != 0.04 {
		t.Errorf("sweep endpoints wrong: %+v", sr.Jobs)
	}

	for name, body := range map[string]string{
		"rates and range": `{"spec":` + tinySpecJSON + `,"rates":[0.01],"from":0.01,"to":0.1,"steps":3}`,
		"one step":        `{"spec":` + tinySpecJSON + `,"from":0.01,"to":0.1,"steps":1}`,
		"inverted range":  `{"spec":` + tinySpecJSON + `,"from":0.2,"to":0.1,"steps":3}`,
		"trace sweep":     `{"spec":{"trace_app":"FFT"},"from":0.01,"to":0.1,"steps":3}`,
	} {
		resp, b := postJSON(t, srv.URL+"/v1/sweeps", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, resp.StatusCode, b)
		}
	}
}

func TestHTTPMetricsAndHealth(t *testing.T) {
	srv, sched := newTestServer(t, SchedConfig{Workers: 2, QueueDepth: 8})

	mustFinish(t, sched, tinySpec())
	mustFinish(t, sched, tinySpec())

	resp, body := getJSON(t, srv.URL+"/metrics.json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	var m Metrics
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("metrics body: %v in %s", err, body)
	}
	if m.Cache.Hits != 1 || m.Cache.Executed != 1 || m.JobsDone != 2 {
		t.Errorf("metrics counters wrong: %s", body)
	}
	if m.JobLatencyUS.Count != 1 || m.JobLatencyUS.P50 <= 0 {
		t.Errorf("latency histogram empty: %s", body)
	}

	// /metrics with Accept: application/json negotiates to the same document.
	req, _ := http.NewRequest("GET", srv.URL+"/metrics", nil)
	req.Header.Set("Accept", "application/json")
	nresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer nresp.Body.Close()
	var neg Metrics
	if err := json.NewDecoder(nresp.Body).Decode(&neg); err != nil {
		t.Fatalf("negotiated metrics not JSON: %v", err)
	}
	if neg.JobsDone != m.JobsDone {
		t.Errorf("negotiated metrics disagree: %d vs %d jobs done", neg.JobsDone, m.JobsDone)
	}

	if resp, _ := getJSON(t, srv.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", resp.StatusCode)
	}
}

// promLineRE accepts the three legal non-blank line shapes of the
// Prometheus text exposition format 0.0.4: # HELP, # TYPE, and a sample
// with optional labels (whose quoted values may themselves contain braces)
// and a float value.
var promLineRE = regexp.MustCompile(
	`^(# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*` +
		`|# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram|summary|untyped)` +
		`|[a-zA-Z_:][a-zA-Z0-9_:]*(\{([a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*",?)*\})? (-?\d+(\.\d+)?([eE][+-]?\d+)?|[+-]Inf|NaN))$`)

// TestHTTPMetricsPrometheus: GET /metrics serves well-formed Prometheus
// text exposition carrying the scheduler, runtime, and build-info families.
func TestHTTPMetricsPrometheus(t *testing.T) {
	srv, sched := newTestServer(t, SchedConfig{Workers: 2, QueueDepth: 8})
	mustFinish(t, sched, tinySpec())
	// Hit the parameterized route so its label value ("/v1/runs/{id}",
	// braces included) must survive the line validation below.
	getJSON(t, srv.URL+"/v1/runs/j-0")

	resp, body := getJSON(t, srv.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q, want text/plain exposition", ct)
	}
	text := string(body)
	for i, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			continue
		}
		if !promLineRE.MatchString(line) {
			t.Errorf("line %d not valid exposition syntax: %q", i+1, line)
		}
	}
	for _, want := range []string{
		"# TYPE simsvc_jobs_done_total counter",
		"# TYPE simsvc_queue_depth gauge",
		"# TYPE simsvc_http_request_duration_seconds histogram",
		"simsvc_http_request_duration_seconds_bucket{le=\"+Inf\"}",
		"# TYPE go_goroutines gauge",
		"build_info{",
		"simsvc_jobs_done_total 1",
		"simsvc_cache_executed_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The scrape itself is counted: a second scrape sees the first.
	_, body2 := getJSON(t, srv.URL+"/metrics")
	if !strings.Contains(string(body2), `simsvc_http_requests_total{method="GET",route="/metrics",code="200"}`) {
		t.Errorf("second scrape missing request counter for the first:\n%s", body2)
	}
}

// TestHTTPRequestID: every response carries X-Request-ID — echoed when the
// client sent one, minted otherwise — and the ID flows into the job view.
func TestHTTPRequestID(t *testing.T) {
	srv, sched := newTestServer(t, SchedConfig{Workers: 2, QueueDepth: 8})

	resp, _ := getJSON(t, srv.URL+"/healthz")
	if got := resp.Header.Get("X-Request-ID"); len(got) != 16 {
		t.Errorf("minted request id %q, want 16 hex chars", got)
	}

	req, _ := http.NewRequest("POST", srv.URL+"/v1/runs", strings.NewReader(tinySpecJSON))
	req.Header.Set("X-Request-ID", "client-chosen-id-1")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-ID"); got != "client-chosen-id-1" {
		t.Errorf("request id not echoed: %q", got)
	}
	var v JobView
	if err := json.NewDecoder(resp2.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.RequestID != "client-chosen-id-1" {
		t.Errorf("job view request id %q, want the submitting request's", v.RequestID)
	}

	// The finished job exposes its span timings, execute and encode among
	// them, through GET /v1/runs/{id}.
	done := waitDone(t, sched, v.ID)
	if done.RequestID != "client-chosen-id-1" {
		t.Errorf("done view lost request id: %q", done.RequestID)
	}
	spans := map[string]int64{}
	for _, sp := range done.Spans {
		spans[sp.Name] = sp.DurUS
	}
	for _, want := range []string{"queue-wait", "execute", "encode"} {
		if _, ok := spans[want]; !ok {
			t.Errorf("span %q missing from %v", want, done.Spans)
		}
	}
	if spans["execute"] <= 0 {
		t.Errorf("execute span not timed: %v", done.Spans)
	}
}

// TestHTTPRetryAfter: overload rejections carry a Retry-After hint.
func TestHTTPRetryAfter(t *testing.T) {
	srv, sched := newTestServer(t, SchedConfig{Workers: 1, QueueDepth: 1})

	first, err := sched.Submit(context.Background(), slowSpec(31))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, sched, first.ID)
	if _, err := sched.Submit(context.Background(), slowSpec(32)); err != nil {
		t.Fatal(err)
	}

	resp, _ := postJSON(t, srv.URL+"/v1/runs",
		`{"scheme":"PR","pattern":"PAT271","radix":[4,4],"rate":0.02,"warmup":-1,"measure":30000,"seed":33}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue: status %d, want 429", resp.StatusCode)
	}
	// The hint is derived from the backlog: one running plus one queued job
	// at the assumed 1s p50 (no job has completed yet) rounds up to 2s.
	if resp.Header.Get("Retry-After") != "2" {
		t.Errorf("429 Retry-After %q, want \"2\"", resp.Header.Get("Retry-After"))
	}
}

// TestHTTPOversizedBodyRejected: request bodies beyond the 1 MiB cap must be
// rejected with 400 instead of buffered without bound — and the server must
// stay healthy afterwards. A valid spec padded past the cap is refused too, as
// the ring coordinator refuses it: the body is read whole before it is
// decoded. (The Decoder used to stop at the end of the spec's object and
// accept it.)
func TestHTTPOversizedBodyRejected(t *testing.T) {
	srv, _ := newTestServer(t, SchedConfig{Workers: 1, QueueDepth: 4})
	for what, huge := range map[string]string{
		"long string":     `{"scheme":"PR","pattern":"` + strings.Repeat("x", MaxBodyBytes+1) + `"}`,
		"trailing spaces": tinySpecJSON + strings.Repeat(" ", MaxBodyBytes),
	} {
		resp, b := postJSON(t, srv.URL+"/v1/runs", huge)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(b), "request body too large") {
			t.Fatalf("oversized body, %s: status %d, want 400: %s", what, resp.StatusCode, b)
		}
	}
	resp, _ := getJSON(t, srv.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after oversized body: %d", resp.StatusCode)
	}
}

// TestHTTPFaultSpecAccepted: a spec carrying a fault plan round-trips through
// the API and produces a fault report in the result payload.
func TestHTTPFaultSpecAccepted(t *testing.T) {
	srv, sched := newTestServer(t, SchedConfig{Workers: 1, QueueDepth: 4})
	spec := `{"scheme":"PR","pattern":"PAT271","radix":[2,2],"rate":0.02,"warmup":-1,"measure":500,
		"faults":{"events":[{"kind":"token-loss","at":100}]}}`
	resp, body := postJSON(t, srv.URL+"/v1/runs", spec)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("faulted spec: status %d: %s", resp.StatusCode, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	done := waitDone(t, sched, v.ID)
	var res Result
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Summary.Fault == nil || res.Summary.Fault.TokenLosses != 1 {
		t.Fatalf("fault report missing or wrong: %+v", res.Summary.Fault)
	}

	// A plan the validator rejects surfaces as 400, not a failed job.
	bad := `{"scheme":"PR","pattern":"PAT271","radix":[2,2],"rate":0.02,"warmup":-1,"measure":500,
		"faults":{"events":[{"kind":"link-down","router":999}]}}`
	resp, _ = postJSON(t, srv.URL+"/v1/runs", bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid fault plan: status %d, want 400", resp.StatusCode)
	}
}
