package simsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
)

// encoderBytes is what every reply body must equal: json.NewEncoder with
// SetIndent("", "  ") applied to v.
func encoderBytes(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkReplyBytes decodes body as a T and requires the encoder to give the
// same bytes back. A json.RawMessage field keeps the body's own bytes through
// the decode, and the encoder compacts, HTML-escapes and re-indents them, so
// any byte of a result that is not where the encoder would put it shows.
func checkReplyBytes[T any](t *testing.T, what string, body []byte) T {
	t.Helper()
	var v T
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		t.Fatalf("%s: decode: %v\n%s", what, err, body)
	}
	if want := encoderBytes(t, v); !bytes.Equal(body, want) {
		t.Errorf("%s: body is not the encoder's output for the same value\n got %q\nwant %q", what, body, want)
	}
	return v
}

// replyPayloads are result payloads an executor could hand the store, chosen
// for what an indenting, HTML-escaping encoder does to them.
var replyPayloads = []string{
	`{"summary":{"digest":"00ab","rates":[0.5,[1,2,[3]],{"k":null}],"none":{},"nil":[]},"n":1e-07,"neg":-0,"ok":true}`,
	"{\"s\":\"<a href=\\\"x\\\">&amp; \u2028 \u2029 \\u2028 \\\\ \\\" </a>\",\"<k>\":[\"&\"]}",
	`[]`,
	`{}`,
	`[{"a":[]},[[]],"<"]`,
	`"a<b>&c"`,
	`1e-07`,
	`null`,
	"{\n  \"pre\": {\n    \"indented\": [\n      1,\n      2\n    ]\n  }\n}\n",
	" \t{\"spaced\" : [ 1 , 2 ] }\r\n ",
}

// payloadExec answers seed i+1 with replyPayloads[i] and fails any other.
func payloadExec(_ context.Context, spec RunSpec, _ *obs.Bus) ([]byte, error) {
	if spec.Seed > uint64(len(replyPayloads)) {
		return nil, errors.New("no payload <for> this seed & none wanted")
	}
	return []byte(replyPayloads[spec.Seed-1]), nil
}

// replyServer is a Server driven the way bench/serve.go drives it: recorder
// and request from httptest, no sockets.
type replyServer struct {
	sched *Scheduler
	api   *Server
}

func newReplyServer(t testing.TB, cfg SchedConfig) *replyServer {
	t.Helper()
	if cfg.Store == nil {
		cfg.Store, _ = NewStore(64, "")
	}
	s := &replyServer{sched: NewScheduler(cfg)}
	s.api = NewServer(s.sched)
	s.api.SetLogger(log.New(io.Discard, "", 0))
	t.Cleanup(func() { s.sched.Drain(context.Background()) })
	return s
}

func (s *replyServer) do(method, path, body string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	s.api.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
	return w
}

func seededSpecJSON(seed int) string {
	b, _ := json.Marshal(seededSpec(uint64(seed)))
	return string(b)
}

// TestReplyBytesMatchEncoder pins every reply body to the bytes
// json.NewEncoder + SetIndent("", "  ") produces for the same value, on every
// path a result payload can leave by.
func TestReplyBytesMatchEncoder(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(64, dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := newReplyServer(t, SchedConfig{Workers: 1, QueueDepth: 4, Store: store, Exec: payloadExec})

	for i, payload := range replyPayloads {
		var compact bytes.Buffer
		if err := json.Compact(&compact, []byte(payload)); err != nil {
			t.Fatal(err)
		}
		sameResult := func(what string, got json.RawMessage) {
			t.Helper()
			var c bytes.Buffer
			if err := json.Compact(&c, got); err != nil {
				t.Fatalf("%s: result: %v", what, err)
			}
			// The reply escapes <, >, &, U+2028 and U+2029; the payload
			// may not. Compare as the encoder would have escaped it.
			var want bytes.Buffer
			json.HTMLEscape(&want, compact.Bytes())
			if !bytes.Equal(c.Bytes(), want.Bytes()) {
				t.Errorf("%s: result %s, want %s", what, c.Bytes(), want.Bytes())
			}
		}

		w := srv.do(http.MethodPost, "/v1/runs", seededSpecJSON(i+1))
		if w.Code != http.StatusAccepted {
			t.Fatalf("payload %d: POST miss: %d %s", i, w.Code, w.Body)
		}
		queued := checkReplyBytes[JobView](t, "POST miss", w.Body.Bytes())
		waitDone(t, srv.sched, queued.ID)

		w = srv.do(http.MethodGet, "/v1/runs/"+queued.ID, "")
		if w.Code != http.StatusOK {
			t.Fatalf("payload %d: GET executed job: %d %s", i, w.Code, w.Body)
		}
		v := checkReplyBytes[JobView](t, "GET executed job", w.Body.Bytes())
		if v.Cached || v.Status != StatusDone {
			t.Errorf("payload %d: executed job reads %+v", i, v)
		}
		sameResult("GET executed job", v.Result)

		for _, round := range []string{"first hit", "second hit"} {
			w = srv.do(http.MethodPost, "/v1/runs", seededSpecJSON(i+1))
			if w.Code != http.StatusOK {
				t.Fatalf("payload %d: POST %s: %d %s", i, round, w.Code, w.Body)
			}
			posted := w.Body.Bytes()
			hit := checkReplyBytes[JobView](t, "POST "+round, posted)
			if !hit.Cached || !bytes.Contains(posted, []byte(`"cached": true`)) {
				t.Errorf("payload %d: POST %s not marked cached: %s", i, round, posted)
			}
			sameResult("POST "+round, hit.Result)

			w = srv.do(http.MethodGet, "/v1/runs/"+hit.ID, "")
			sameResult("GET hit job", checkReplyBytes[JobView](t, "GET hit job", w.Body.Bytes()).Result)
			if !bytes.Equal(w.Body.Bytes(), posted) {
				t.Errorf("payload %d: GET of the %s is not its POST reply\n got %q\nwant %q", i, round, w.Body, posted)
			}

			w = srv.do(http.MethodGet, "/v1/runs/"+hit.SpecHash, "")
			if w.Code != http.StatusOK {
				t.Fatalf("payload %d: GET by hash: %d %s", i, w.Code, w.Body)
			}
			cv := checkReplyBytes[CachedView](t, "GET by hash", w.Body.Bytes())
			sameResult("GET by hash", cv.Result)
		}
	}

	// The same entries read back from disk by a second service.
	store2, err := NewStore(2, dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := newReplyServer(t, SchedConfig{Workers: 1, QueueDepth: 4, Store: store2, Exec: payloadExec})
	for i := range replyPayloads {
		w := srv2.do(http.MethodPost, "/v1/runs", seededSpecJSON(i+1))
		if w.Code != http.StatusOK {
			t.Fatalf("payload %d: POST hit from disk: %d %s", i, w.Code, w.Body)
		}
		checkReplyBytes[JobView](t, "POST hit from disk", w.Body.Bytes())
	}

	w := srv.do(http.MethodPost, "/v1/runs", seededSpecJSON(len(replyPayloads)+1))
	failed := checkReplyBytes[JobView](t, "POST failing spec", w.Body.Bytes())
	waitSettled(t, srv.sched, failed.ID)
	w = srv.do(http.MethodGet, "/v1/runs/"+failed.ID, "")
	if v := checkReplyBytes[JobView](t, "GET failed job", w.Body.Bytes()); v.Status != StatusFailed || v.Error == "" || v.Result != nil {
		t.Errorf("failed job reads %+v", v)
	}

	checkCoalescedReply(t)
	evicted, evictedID := checkRetainedHitReplies(t)

	// Only the spelling a job ID is minted in names a job.
	for _, id := range []string{"j-1", "j-0000001", "j-+00001", "j-00001a", "j-", "j-99999999999999999999"} {
		if w := srv.do(http.MethodGet, "/v1/runs/"+id, ""); w.Code != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404: %s", id, w.Code, w.Body)
		}
		if _, ok := srv.sched.Job(id); ok {
			t.Errorf("Job(%q) found a job", id)
		}
	}
	if _, ok := evicted.sched.Job(evictedID); ok {
		t.Errorf("Job(%q) found an evicted job", evictedID)
	}
	if w := evicted.do(http.MethodGet, "/v1/runs/"+evictedID, ""); w.Code != http.StatusNotFound {
		t.Errorf("GET of evicted %s: status %d, want 404", evictedID, w.Code)
	}

	for _, c := range []struct {
		what, method, path, body string
		status                   int
	}{
		{"unknown job", http.MethodGet, "/v1/runs/j-999999", "", 404},
		{"unknown hash", http.MethodGet, "/v1/runs/0123456789abcdef", "", 404},
		{"bad json", http.MethodPost, "/v1/runs", `{"scheme":`, 400},
		{"bad spec", http.MethodPost, "/v1/runs", `{"scheme":"<bogus>"}`, 400},
		{"bad sweep", http.MethodPost, "/v1/sweeps", `{"spec":{},"steps":1}`, 400},
	} {
		w := srv.do(c.method, c.path, c.body)
		if w.Code != c.status {
			t.Errorf("%s: status %d, want %d", c.what, w.Code, c.status)
		}
		if e := checkReplyBytes[APIError](t, c.what, w.Body.Bytes()); e.Error == "" {
			t.Errorf("%s: empty error: %s", c.what, w.Body)
		}
	}
}

// checkCoalescedReply: the second of two identical submissions, queued behind
// the first's held execution, finishes from the cache without a simulation of
// its own, and its GET is the encoder's bytes.
func checkCoalescedReply(t *testing.T) {
	t.Helper()
	release := make(chan struct{})
	srv := newReplyServer(t, SchedConfig{Workers: 1, QueueDepth: 4,
		Exec: func(ctx context.Context, spec RunSpec, bus *obs.Bus) ([]byte, error) {
			<-release
			return payloadExec(ctx, spec, bus)
		}})
	var ids []string
	for range 2 {
		w := srv.do(http.MethodPost, "/v1/runs", seededSpecJSON(2))
		if w.Code != http.StatusAccepted {
			t.Fatalf("POST twin: %d %s", w.Code, w.Body)
		}
		ids = append(ids, checkReplyBytes[JobView](t, "POST twin", w.Body.Bytes()).ID)
	}
	close(release)
	for k, id := range ids {
		waitDone(t, srv.sched, id)
		w := srv.do(http.MethodGet, "/v1/runs/"+id, "")
		if v := checkReplyBytes[JobView](t, "GET twin", w.Body.Bytes()); v.Cached != (k == 1) {
			t.Errorf("twin %d: cached %v", k, v.Cached)
		}
	}
	if m := srv.sched.Metrics(); m.Cache.Executed != 1 || m.Cache.Coalesced != 1 {
		t.Errorf("twins: %d executed, %d coalesced; want 1 each", m.Cache.Executed, m.Cache.Coalesced)
	}
}

// checkRetainedHitReplies: a hit whose store entry an 8-entry LRU has since
// dropped reads as its POST did, and so does the newest of JobTableCap further
// hits. It returns the server and the first hit's ID, which those hits evicted.
func checkRetainedHitReplies(t *testing.T) (*replyServer, string) {
	t.Helper()
	store, _ := NewStore(8, "")
	srv := newReplyServer(t, SchedConfig{Workers: 1, QueueDepth: 4, Store: store, Exec: payloadExec})
	execute := func(seed int) {
		w := srv.do(http.MethodPost, "/v1/runs", seededSpecJSON(seed))
		if w.Code != http.StatusAccepted {
			t.Fatalf("POST seed %d: %d %s", seed, w.Code, w.Body)
		}
		waitDone(t, srv.sched, checkReplyBytes[JobView](t, "POST miss", w.Body.Bytes()).ID)
	}
	hitOnce := func(seed int) (string, []byte) {
		w := srv.do(http.MethodPost, "/v1/runs", seededSpecJSON(seed))
		if w.Code != http.StatusOK {
			t.Fatalf("POST hit seed %d: %d %s", seed, w.Code, w.Body)
		}
		return checkReplyBytes[JobView](t, "POST hit", w.Body.Bytes()).ID, w.Body.Bytes()
	}
	getIs := func(what, id string, want []byte) {
		w := srv.do(http.MethodGet, "/v1/runs/"+id, "")
		checkReplyBytes[JobView](t, what, w.Body.Bytes())
		if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), want) {
			t.Errorf("%s: %d, not its POST reply\n got %q\nwant %q", what, w.Code, w.Body, want)
		}
	}

	execute(1)
	first, posted := hitOnce(1)
	for seed := 2; seed <= len(replyPayloads); seed++ {
		execute(seed)
	}
	if _, ok := store.Get(seededSpecHash(1)); ok {
		t.Fatal("seed 1's entry is still in the 8-entry store")
	}
	getIs("GET hit after its entry left the store", first, posted)

	last := len(replyPayloads)
	for range JobTableCap - 1 {
		if _, err := srv.sched.Submit(context.Background(), seededSpec(uint64(last))); err != nil {
			t.Fatal(err)
		}
	}
	newest, posted := hitOnce(last)
	getIs("GET newest hit", newest, posted)
	return srv, first
}

func seededSpecHash(seed int) string {
	n, _ := seededSpec(uint64(seed)).Normalized()
	return n.Hash()
}

// FuzzRenderedResult: for any bytes, appendResult accepts exactly the JSON
// documents, and what it appends is what the encoder writes for the same bytes
// as a json.RawMessage one level deep.
func FuzzRenderedResult(f *testing.F) {
	for _, p := range replyPayloads {
		f.Add([]byte(p))
	}
	for _, p := range []string{"", " ", `{"summary":{"digest":"ab`, `{"a":1}}`, `{"a":1}{`, `{"a":1} x`, `[1,]`, "\"\xff<\"", "{\"a\":\" \"}\n\n"} {
		f.Add([]byte(p))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		rendered, err := renderResult(payload)
		if valid := json.Valid(payload); valid != (err == nil) {
			t.Fatalf("json.Valid = %v, renderResult error = %v", valid, err)
		}
		if err != nil {
			return
		}
		type carrier struct {
			Result json.RawMessage `json:"result"`
		}
		got := "{\n  \"result\": " + string(rendered) + replyEnd
		if want := encoderBytes(t, carrier{payload}); got != string(want) {
			t.Fatalf("rendered form is not the encoder's\n got %q\nwant %q", got, want)
		}
	})
}

// FuzzHitReply: for any spec the API admits and any X-Request-ID, the body of
// a POST the cache answers, and of a GET of the job it made, is the encoder's
// output for that job's whole JobView: the reply writes the spec echo and the
// result from the store entry, and encodes only the rest.
func FuzzHitReply(f *testing.F) {
	f.Add("PR", "PAT271", "", []byte{2, 2}, false, 0, 0, 0, 0, "", 0, 0.02, 0, uint64(0),
		int64(-1), int64(500), int64(0), int64(0), false, "", int64(0), "rid-1", uint8(0))
	f.Add("dr", "PAT280", "", []byte{4, 4}, true, 2, 8, 4, 32, "class", 7, 0.0125, -1, uint64(1<<63),
		int64(0), int64(0), int64(-1), int64(-1), true, "token-loss", int64(800), "<a href=\"&\">\u2028\u2029", uint8(1))
	f.Add("SA", "PAT100", "", []byte{2, 3, 4}, false, 1, 6, 2, 16, "type", 40, 1e-05, 16, uint64(7),
		int64(100), int64(3000), int64(200), int64(25), false, "", int64(0), "\xff\xfe<&>", uint8(2))
	f.Add("PR", "", "FFT", []byte{}, false, 0, 0, 0, 0, "", 0, 0.0, 0, uint64(3),
		int64(0), int64(3000), int64(0), int64(0), false, "", int64(0), "", uint8(5))
	store, _ := NewStore(64, "")
	srv := newReplyServer(f, SchedConfig{Workers: 1, QueueDepth: 4, Store: store, Exec: payloadExec})
	f.Fuzz(func(t *testing.T, scheme, pattern, traceApp string, radix []byte, mesh bool,
		bristling, vcs, flitBuf, queueCap int, queueMode string, serviceTime int, rate float64,
		maxOutstanding int, seed uint64, warmup, measure, maxDrain, cwgInterval int64, check bool,
		faultKind string, faultAt int64, reqID string, payload uint8) {
		spec := RunSpec{Scheme: scheme, Pattern: pattern, TraceApp: traceApp, Mesh: mesh,
			Bristling: bristling, VCs: vcs, FlitBuf: flitBuf, QueueCap: queueCap, QueueMode: queueMode,
			ServiceTime: serviceTime, Rate: rate, MaxOutstanding: maxOutstanding, Seed: seed,
			Warmup: warmup, Measure: measure, MaxDrain: maxDrain, CWGInterval: cwgInterval, Check: check}
		for _, r := range radix {
			spec.Radix = append(spec.Radix, int(r))
		}
		if faultKind != "" {
			spec.Faults = &fault.Plan{Events: []fault.Event{{Kind: fault.EventKind(faultKind), At: faultAt}}}
		}
		norm, err := spec.Normalized()
		if err != nil {
			return
		}
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Put(norm.Hash(), []byte(replyPayloads[int(payload)%len(replyPayloads)])); err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(body))
		req.Header.Set("X-Request-ID", reqID)
		w := httptest.NewRecorder()
		srv.api.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("POST %s: %d, want a hit: %s", body, w.Code, w.Body)
		}
		var posted JobView
		if err := json.Unmarshal(w.Body.Bytes(), &posted); err != nil {
			t.Fatalf("POST %s: %v\n%s", body, err, w.Body)
		}
		job, ok := srv.sched.Job(posted.ID)
		if !ok {
			t.Fatalf("no job %s", posted.ID)
		}
		want := encoderBytes(t, job)
		if !bytes.Equal(w.Body.Bytes(), want) {
			t.Fatalf("POST hit is not the encoder's bytes for its job\n got %q\nwant %q", w.Body, want)
		}
		if w := srv.do(http.MethodGet, "/v1/runs/"+posted.ID, ""); !bytes.Equal(w.Body.Bytes(), want) {
			t.Fatalf("GET of a hit job is not the encoder's bytes for it\n got %q\nwant %q", w.Body, want)
		}
	})
}

// TestUnencodableReplyIs500: a reply is encoded before its status is written,
// so a value that does not encode — here the non-JSON bytes an executor left
// for a job that ran — answers 500 with an APIError body, not 200 over nothing.
func TestUnencodableReplyIs500(t *testing.T) {
	var logged bytes.Buffer
	srv := newReplyServer(t, SchedConfig{Workers: 1, QueueDepth: 4,
		Exec: func(context.Context, RunSpec, *obs.Bus) ([]byte, error) { return []byte(`{"cut":"sho`), nil }})
	srv.api.SetLogger(log.New(&logged, "", 0))

	w := srv.do(http.MethodPost, "/v1/runs", seededSpecJSON(1))
	queued := checkReplyBytes[JobView](t, "POST miss", w.Body.Bytes())
	waitDone(t, srv.sched, queued.ID)

	w = srv.do(http.MethodGet, "/v1/runs/"+queued.ID, "")
	if w.Code != http.StatusInternalServerError {
		t.Errorf("GET of a job whose result is not JSON: status %d, want 500", w.Code)
	}
	if e := checkReplyBytes[APIError](t, "500 body", w.Body.Bytes()); !strings.Contains(e.Error, "unexpected end of JSON input") {
		t.Errorf("500 body does not say why: %s", w.Body)
	}
	if !strings.Contains(logged.String(), "encode 200 response") {
		t.Errorf("no log line for the failed encode: %q", logged.String())
	}

	// The generic path, which the coordinator takes for every reply.
	w = httptest.NewRecorder()
	srv.api.shell.WriteJSON(w, http.StatusAccepted, JobView{ID: "r-000001", Result: json.RawMessage(`{"cut":`)})
	if w.Code != http.StatusInternalServerError {
		t.Errorf("WriteJSON of a value that does not encode: status %d, want 500", w.Code)
	}
	checkReplyBytes[APIError](t, "WriteJSON 500 body", w.Body.Bytes())
}
