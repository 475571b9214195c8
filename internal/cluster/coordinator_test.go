package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/simsvc"
)

// testBackend is one in-process simserve: a real simsvc scheduler + HTTP
// server behind a wrapper that can simulate slowness, 503s, and records
// request IDs. Exec is stubbed (deterministic payload per spec hash, same
// on every backend — the content-addressed property the cluster relies on).
type testBackend struct {
	srv     *httptest.Server
	sched   *simsvc.Scheduler
	store   *simsvc.Store
	api     atomic.Pointer[simsvc.Server]
	down    atomic.Bool  // respond 503 to everything
	slowMS  atomic.Int64 // delay every request
	execs   atomic.Int64 // simulations this backend ran
	mu      sync.Mutex
	reqIDs  []string
	peerURL atomic.Value // string; "" = no peer fill
}

func (tb *testBackend) recordedReqIDs() []string {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	return append([]string(nil), tb.reqIDs...)
}

// stubPayload is what every backend "computes" for a spec: deterministic,
// content-addressed, byte-identical everywhere. Beyond the digest it carries
// what an indenting, HTML-escaping encoder has to get right: nesting, empty
// containers, <, >, &, an escaped quote and a number in exponent form.
func stubPayload(spec simsvc.RunSpec) []byte {
	return []byte(`{"digest":"` + spec.Hash() + `","note":"<a> & \"b\" \u2028","nest":{"none":{},"list":[1e-07,[2,[]]]}}`)
}

func newTestBackend(t *testing.T, execDelay time.Duration) *testBackend {
	t.Helper()
	tb := &testBackend{}
	var err error
	if tb.store, err = simsvc.NewStore(64, ""); err != nil {
		t.Fatal(err)
	}
	tb.peerURL.Store("")
	tb.restart(t, execDelay)
	tb.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if d := tb.slowMS.Load(); d > 0 {
			time.Sleep(time.Duration(d) * time.Millisecond)
		}
		if tb.down.Load() {
			http.Error(w, "injected outage", http.StatusServiceUnavailable)
			return
		}
		if rid := r.Header.Get("X-Request-ID"); rid != "" && r.URL.Path != "/readyz" && r.URL.Path != "/healthz" {
			tb.mu.Lock()
			tb.reqIDs = append(tb.reqIDs, rid)
			tb.mu.Unlock()
		}
		tb.api.Load().ServeHTTP(w, r)
	}))
	t.Cleanup(tb.srv.Close)
	return tb
}

// restart puts a new scheduler and API over the backend's store behind its
// URL: a shard restarted over a persistent cache, which has forgotten every job
// it ran and still has every result.
func (tb *testBackend) restart(t *testing.T, execDelay time.Duration) {
	t.Helper()
	sched := simsvc.NewScheduler(simsvc.SchedConfig{
		Workers: 2, QueueDepth: 32, Store: tb.store,
		Exec: func(ctx context.Context, spec simsvc.RunSpec, _ *obs.Bus) ([]byte, error) {
			tb.execs.Add(1)
			if execDelay > 0 {
				select {
				case <-time.After(execDelay):
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			return stubPayload(spec), nil
		},
		PeerFill: func(ctx context.Context, hash string) ([]byte, bool) {
			peer, _ := tb.peerURL.Load().(string)
			if peer == "" {
				return nil, false
			}
			return PeerFiller([]string{peer}, time.Second)(ctx, hash)
		},
	})
	api := simsvc.NewServer(sched)
	api.SetLogger(log.New(io.Discard, "", 0))
	tb.sched = sched
	tb.api.Store(api)
	t.Cleanup(func() { sched.Drain(context.Background()) })
}

// testCluster boots n backends and a coordinator with CI-friendly tight
// timings.
func testCluster(t *testing.T, n int, execDelay time.Duration, mod func(*Config)) (*Coordinator, []*testBackend) {
	t.Helper()
	backends := make([]*testBackend, n)
	urls := make([]string, n)
	for i := range backends {
		backends[i] = newTestBackend(t, execDelay)
		urls[i] = backends[i].srv.URL
	}
	cfg := Config{
		Backends:       urls,
		ProbeInterval:  25 * time.Millisecond,
		ProbeTimeout:   200 * time.Millisecond,
		BreakerOpenFor: 50 * time.Millisecond,
		RetryBase:      5 * time.Millisecond,
		RetryMax:       100 * time.Millisecond,
		HedgeMin:       5 * time.Millisecond,
		HedgeMax:       100 * time.Millisecond,
		QueueDepth:     8,
		Client:         &http.Client{Timeout: 2 * time.Second},
		Logger:         log.New(io.Discard, "", 0),
	}
	if mod != nil {
		mod(&cfg)
	}
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		coord.Drain(ctx)
	})
	return coord, backends
}

func specJSON(seed uint64) string {
	return fmt.Sprintf(`{"scheme":"PR","pattern":"PAT271","radix":[2,2],"rate":0.02,"warmup":-1,"measure":500,"seed":%d}`, seed)
}

func specHash(t *testing.T, seed uint64) string {
	t.Helper()
	return normalizedSpec(t, specJSON(seed)).Hash()
}

// normalizedSpec is the spec a shard reports for a submitted body.
func normalizedSpec(t *testing.T, body string) simsvc.RunSpec {
	t.Helper()
	var spec simsvc.RunSpec
	if err := json.Unmarshal([]byte(body), &spec); err != nil {
		t.Fatal(err)
	}
	norm, err := spec.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	return norm
}

func doPost(t *testing.T, coord *Coordinator, path, body string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	coord.ServeHTTP(rec, req)
	resp := rec.Result()
	b, _ := io.ReadAll(resp.Body)
	return resp, b
}

func doGet(t *testing.T, coord *Coordinator, path string) (*http.Response, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	coord.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	resp := rec.Result()
	b, _ := io.ReadAll(resp.Body)
	return resp, b
}

// pollDone polls one coordinator job ID until done, returning the final
// view.
func pollDone(t *testing.T, coord *Coordinator, id string, within time.Duration) simsvc.JobView {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		resp, body := doGet(t, coord, "/v1/runs/"+id)
		if resp.StatusCode == http.StatusOK {
			var v simsvc.JobView
			if err := json.Unmarshal(body, &v); err == nil {
				switch v.Status {
				case simsvc.StatusDone:
					return v
				case simsvc.StatusFailed:
					t.Fatalf("job %s failed: %s", id, v.Error)
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s not done within %v (last: %d %s)", id, within, resp.StatusCode, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestSubmitRoutesByOwnerAndCaches(t *testing.T) {
	coord, backends := testCluster(t, 3, 0, nil)

	resp, body := doPost(t, coord, "/v1/runs", specJSON(1), nil)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var v simsvc.JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(v.ID, "r-") {
		t.Fatalf("coordinator job id %q, want r-NNNNNN", v.ID)
	}
	done := pollDone(t, coord, v.ID, 5*time.Second)
	if !strings.Contains(string(done.Result), specHash(t, 1)) {
		t.Fatalf("result %s does not carry the spec digest", done.Result)
	}

	// The simulation ran on the ring owner.
	owner := coord.Ring().Owner(specHash(t, 1))
	if backends[owner].execs.Load() != 1 {
		execs := []int64{backends[0].execs.Load(), backends[1].execs.Load(), backends[2].execs.Load()}
		t.Fatalf("owner %d did not execute exactly once: execs per backend %v", owner, execs)
	}

	// A repeat submit is a cache hit on that owner: HTTP 200, cached.
	resp, body = doPost(t, coord, "/v1/runs", specJSON(1), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat submit: %d %s, want 200", resp.StatusCode, body)
	}
	var rv simsvc.JobView
	json.Unmarshal(body, &rv)
	if !rv.Cached {
		t.Fatalf("repeat submit not served from cache: %s", body)
	}
	total := backends[0].execs.Load() + backends[1].execs.Load() + backends[2].execs.Load()
	if total != 1 {
		t.Fatalf("repeat submit re-simulated: %d total executions", total)
	}
}

func TestRequestIDPropagatesAcrossHop(t *testing.T) {
	coord, backends := testCluster(t, 2, 0, func(c *Config) { c.DisableHedge = true })
	resp, _ := doPost(t, coord, "/v1/runs", specJSON(7), map[string]string{"X-Request-ID": "rid-hop-1"})
	if got := resp.Header.Get("X-Request-ID"); got != "rid-hop-1" {
		t.Fatalf("coordinator did not echo the request ID: %q", got)
	}
	found := false
	for _, tb := range backends {
		for _, rid := range tb.recordedReqIDs() {
			if rid == "rid-hop-1" {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("client request ID never reached a backend")
	}
}

// TestKillBackendFailover is the in-process half of the chaos criterion:
// with traffic flowing, hard-kill one backend. Accepted jobs must all
// complete (resurrection replays them onto survivors), the dead backend's
// breaker must open, and new submissions must keep succeeding.
func TestKillBackendFailover(t *testing.T) {
	coord, backends := testCluster(t, 3, 10*time.Millisecond, nil)

	// Accept a first wave, then kill backend 0 abruptly (listener gone:
	// connection-refused territory, not graceful 503s).
	ids := make([]string, 0, 24)
	for seed := uint64(1); seed <= 12; seed++ {
		resp, body := doPost(t, coord, "/v1/runs", specJSON(seed), nil)
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("wave-1 seed %d: %d %s", seed, resp.StatusCode, body)
		}
		var v simsvc.JobView
		json.Unmarshal(body, &v)
		ids = append(ids, v.ID)
	}
	backends[0].srv.Close()

	// The breaker must open within a handful of probe intervals.
	deadline := time.Now().Add(2 * time.Second)
	for coord.Breaker(0).State() != BreakerOpen {
		if time.Now().After(deadline) {
			t.Fatalf("breaker for killed backend never opened (state %v)", coord.Breaker(0).State())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Traffic continues: a second wave routes around the corpse.
	for seed := uint64(13); seed <= 24; seed++ {
		resp, body := doPost(t, coord, "/v1/runs", specJSON(seed), nil)
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("wave-2 seed %d: %d %s", seed, resp.StatusCode, body)
		}
		var v simsvc.JobView
		json.Unmarshal(body, &v)
		ids = append(ids, v.ID)
	}

	// Zero accepted-job loss: every job the coordinator accepted — before
	// and after the kill — completes with its content-addressed result.
	for i, id := range ids {
		v := pollDone(t, coord, id, 10*time.Second)
		seed := uint64(i + 1)
		if !strings.Contains(string(v.Result), specHash(t, seed)) {
			t.Fatalf("job %s (seed %d): wrong result %s", id, seed, v.Result)
		}
	}
}

// TestHedgedRequestBeatsSlowOwner: the owner is pathologically slow, so the
// hedge fires at the ring successor and its answer wins.
func TestHedgedRequestBeatsSlowOwner(t *testing.T) {
	coord, backends := testCluster(t, 3, 0, func(c *Config) {
		c.HedgeMin, c.HedgeMax = 5*time.Millisecond, 20*time.Millisecond
	})
	hash := specHash(t, 42)
	owner := coord.Ring().Owner(hash)
	backends[owner].slowMS.Store(1500)

	start := time.Now()
	resp, body := doPost(t, coord, "/v1/runs", specJSON(42), nil)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("hedged submit: %d %s", resp.StatusCode, body)
	}
	if elapsed > time.Second {
		t.Fatalf("hedged submit took %v — the hedge did not rescue the slow owner", elapsed)
	}
	if coord.m.hedges.Value() < 1 || coord.m.hedgeWins.Value() < 1 {
		t.Fatalf("hedges=%v wins=%v, want both >= 1",
			coord.m.hedges.Value(), coord.m.hedgeWins.Value())
	}
	var v simsvc.JobView
	json.Unmarshal(body, &v)
	pollDone(t, coord, v.ID, 5*time.Second)
}

// TestDegradedModeQueuesAndFlushes: with every backend down the
// coordinator still answers 202 (accepted, queued locally, Retry-After
// attached) and 429 past the local queue depth; once a backend recovers,
// the queue flushes and the job completes under its original ID.
func TestDegradedModeQueuesAndFlushes(t *testing.T) {
	coord, backends := testCluster(t, 2, 0, func(c *Config) {
		c.QueueDepth = 2
		c.MaxPasses = 1
		c.DisableHedge = true
	})
	for _, tb := range backends {
		tb.down.Store(true)
	}
	// Let the probers notice.
	deadline := time.Now().Add(2 * time.Second)
	for coord.LiveBackends() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("breakers never opened for downed backends")
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, body := doPost(t, coord, "/v1/runs", specJSON(100), nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("degraded submit: %d %s, want 202", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded 202 carries no Retry-After")
	}
	var v simsvc.JobView
	json.Unmarshal(body, &v)
	if !strings.HasPrefix(v.ID, "r-") || v.Status != simsvc.StatusQueued {
		t.Fatalf("degraded view: %s", body)
	}
	if want := normalizedSpec(t, specJSON(100)); !reflect.DeepEqual(v.Spec, want) {
		t.Errorf("degraded view's spec %+v, a shard's would be %+v", v.Spec, want)
	}

	// A poll while degraded reports the queued job, not an error.
	resp, body = doGet(t, coord, "/v1/runs/"+v.ID)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"queued"`) {
		t.Fatalf("degraded poll: %d %s", resp.StatusCode, body)
	}

	// Fill the local queue: overflow is 429 with Retry-After — the
	// backpressure contract survives total backend loss.
	resp, body = doPost(t, coord, "/v1/runs", specJSON(101), nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second degraded submit: %d", resp.StatusCode)
	}
	var second simsvc.JobView
	json.Unmarshal(body, &second)
	resp, body = doPost(t, coord, "/v1/runs", specJSON(102), nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("degraded overflow: %d %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded 429 carries no Retry-After")
	}

	// readyz mirrors the outage.
	if resp, _ := doGet(t, coord, "/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with zero live backends: %d, want 503", resp.StatusCode)
	}

	// Recovery: probes close the breaker, the flush loop places the
	// queued jobs, and the original IDs complete.
	for _, tb := range backends {
		tb.down.Store(false)
	}
	// The flush places the jobs one at a time and counts each after popping it
	// from the queue, so the first can be polled done before the second is
	// placed, or before its own increment: wait for both IDs, then give the
	// counter a deadline of its own.
	pollDone(t, coord, v.ID, 10*time.Second)
	pollDone(t, coord, second.ID, 10*time.Second)
	for deadline := time.Now().Add(2 * time.Second); coord.m.degradedFlushed.Value() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("degraded_flushed = %v, want >= 2", coord.m.degradedFlushed.Value())
		}
	}
}

// TestForgottenJobKeepsBreakerClosed: a shard restarted over its cache has
// forgotten the job it ran, and its 404 for the job is an answer from a live
// shard, not a failure. The breaker stays closed, the coordinator answers from
// the cached result, and the spec it reports is the one a shard reports for the
// same body: normalized, not the client's bytes decoded.
func TestForgottenJobKeepsBreakerClosed(t *testing.T) {
	coord, backends := testCluster(t, 1, 0, func(c *Config) { c.DisableHedge = true })
	const body = `{"scheme":"pr","radix":[2,2],"rate":0.02,"warmup":-1,"measure":500,"seed":9}`
	resp, raw := doPost(t, coord, "/v1/runs", body, nil)
	var v simsvc.JobView
	if err := json.Unmarshal(raw, &v); err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
	pollDone(t, coord, v.ID, 5*time.Second)

	backends[0].restart(t, 0)
	resp, raw = doGet(t, coord, "/v1/runs/"+v.ID)
	if st := coord.Breaker(0).State(); st != BreakerClosed {
		t.Errorf("the shard's 404 for a job it forgot left its breaker %v", st)
	}
	var got simsvc.JobView
	if err := json.Unmarshal(raw, &got); err != nil || resp.StatusCode != http.StatusOK ||
		got.Status != simsvc.StatusDone || !got.Cached {
		t.Fatalf("GET of the forgotten job: %d %s", resp.StatusCode, raw)
	}

	shard, err := http.Post(backends[0].srv.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer shard.Body.Close()
	var want simsvc.JobView
	if err := json.NewDecoder(shard.Body).Decode(&want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Spec, want.Spec) {
		t.Errorf("the coordinator reports spec %+v, the shard %+v", got.Spec, want.Spec)
	}
}

// TestPeerCacheFillOver: shard B misses locally but its configured peer
// (shard A) has the result — B serves it without simulating.
func TestPeerCacheFillOver(t *testing.T) {
	a := newTestBackend(t, 0)
	b := newTestBackend(t, 0)
	b.peerURL.Store(a.srv.URL)

	var spec simsvc.RunSpec
	if err := json.Unmarshal([]byte(specJSON(55)), &spec); err != nil {
		t.Fatal(err)
	}
	// Seed shard A's cache through its own scheduler.
	va, err := a.sched.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	waitBackendDone(t, a, va.ID)

	// Shard B: same spec, local miss, peer hit — no execution on B.
	vb, err := b.sched.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	waitBackendDone(t, b, vb.ID)
	if b.execs.Load() != 0 {
		t.Fatalf("shard B simulated despite peer fill (%d execs)", b.execs.Load())
	}
	if m := b.sched.Metrics(); m.Cache.PeerFills != 1 {
		t.Fatalf("shard B peer_fills = %d, want 1", m.Cache.PeerFills)
	}
}

func waitBackendDone(t *testing.T, tb *testBackend, id string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, ok := tb.sched.Job(id)
		if ok && v.Status == simsvc.StatusDone {
			return
		}
		if ok && v.Status == simsvc.StatusFailed {
			t.Fatalf("backend job %s failed: %s", id, v.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("backend job %s never finished", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSweepScattersAcrossShards: the coordinator expands the ladder and
// each point lands on the shard owning its spec hash.
func TestSweepScattersAcrossShards(t *testing.T) {
	coord, backends := testCluster(t, 3, 0, func(c *Config) { c.DisableHedge = true })
	body := `{"spec":{"scheme":"PR","pattern":"PAT271","radix":[2,2],"warmup":-1,"measure":500},"from":0.01,"to":0.05,"steps":5}`
	resp, respBody := doPost(t, coord, "/v1/sweeps", body, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep: %d %s", resp.StatusCode, respBody)
	}
	var sr simsvc.SweepResponse
	if err := json.Unmarshal(respBody, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Jobs) != 5 {
		t.Fatalf("sweep expanded to %d jobs, want 5", len(sr.Jobs))
	}
	for _, e := range sr.Jobs {
		if e.Error != "" || !strings.HasPrefix(e.ID, "r-") {
			t.Fatalf("sweep entry %+v", e)
		}
		pollDone(t, coord, e.ID, 10*time.Second)
	}
	// Placement is deterministic: each point executed on exactly the shard
	// the ring assigns to its spec hash (hedging is off and nothing failed,
	// so there are no second copies).
	want := make([]int64, len(backends))
	for i := 0; i < 5; i++ {
		spec := simsvc.RunSpec{Scheme: "PR", Pattern: "PAT271", Radix: []int{2, 2}, Warmup: -1, Measure: 500}
		spec.Rate = 0.01 + (0.05-0.01)*float64(i)/4 // the ladder Expand() produces
		norm, err := spec.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		want[coord.Ring().Owner(norm.Hash())]++
	}
	for i, tb := range backends {
		if got := tb.execs.Load(); got != want[i] {
			t.Fatalf("backend %d executed %d points, ring assigns %d (all: %v)",
				i, got, want[i], want)
		}
	}
}

// TestGetByHashAcrossCluster: a content-addressed GET through the
// coordinator finds the result wherever it lives.
func TestGetByHashAcrossCluster(t *testing.T) {
	coord, _ := testCluster(t, 3, 0, nil)
	resp, body := doPost(t, coord, "/v1/runs", specJSON(77), nil)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var v simsvc.JobView
	json.Unmarshal(body, &v)
	pollDone(t, coord, v.ID, 5*time.Second)

	resp, body = doGet(t, coord, "/v1/runs/"+v.SpecHash)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get by hash: %d %s", resp.StatusCode, body)
	}
	var cv simsvc.CachedView
	if err := json.Unmarshal(body, &cv); err != nil {
		t.Fatal(err)
	}
	if cv.SpecHash != v.SpecHash || len(cv.Result) == 0 {
		t.Fatalf("cached view: %s", body)
	}

	if resp, _ := doGet(t, coord, "/v1/runs/ffffffffffffffff"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown hash: %d, want 404", resp.StatusCode)
	}
}

// TestReplyBytesMatchEncoder: the coordinator rewrites a backend's JobView
// under its own job ID, so the result reaches WriteJSON already indented. The
// reply must still be, byte for byte, what json.NewEncoder + SetIndent("", "  ")
// gives for the same value — the same pin simsvc has under the same name.
func TestReplyBytesMatchEncoder(t *testing.T) {
	coord, _ := testCluster(t, 3, 0, nil)
	check := func(what string, body []byte, v any) {
		t.Helper()
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(v); err != nil {
			t.Fatalf("%s: decode: %v\n%s", what, err, body)
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want.Bytes()) {
			t.Errorf("%s: body is not the encoder's output for the same value\n got %q\nwant %q", what, body, want.Bytes())
		}
	}

	_, body := doPost(t, coord, "/v1/runs", specJSON(5), nil)
	var queued simsvc.JobView
	check("POST miss", body, &queued)
	pollDone(t, coord, queued.ID, 5*time.Second)

	_, body = doGet(t, coord, "/v1/runs/"+queued.ID)
	var done simsvc.JobView
	check("GET done job", body, &done)
	if done.ID != queued.ID || !bytes.Contains(done.Result, []byte(`\u003ca\u003e \u0026 \"b\" \u2028`)) {
		t.Errorf("done job %s: result %s", done.ID, done.Result)
	}

	resp, body := doPost(t, coord, "/v1/runs", specJSON(5), nil)
	var hit simsvc.JobView
	check("POST hit", body, &hit)
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(hit.ID, "r-") || !bytes.Equal(hit.Result, done.Result) {
		t.Errorf("POST hit: %d %s", resp.StatusCode, body)
	}

	_, body = doGet(t, coord, "/v1/runs/"+queued.SpecHash)
	var cv simsvc.CachedView
	check("GET by hash", body, &cv)
	if !bytes.Equal(cv.Result, done.Result) {
		t.Errorf("GET by hash: result %s, the job's read %s", cv.Result, done.Result)
	}

	_, body = doGet(t, coord, "/v1/runs/r-999999")
	check("unknown job", body, &simsvc.APIError{})
}

// TestDrainRejectsNewWork: a draining coordinator answers 503 with
// Retry-After and flushes nothing it accepted.
func TestDrainRejectsNewWork(t *testing.T) {
	coord, _ := testCluster(t, 2, 0, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := coord.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	resp, body := doPost(t, coord, "/v1/runs", specJSON(1), nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d %s, want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining 503 carries no Retry-After")
	}
	if resp, _ := doGet(t, coord, "/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d, want 503", resp.StatusCode)
	}
	// Liveness endpoints stay up for in-flight pollers.
	if resp, _ := doGet(t, coord, "/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining: %d, want 200", resp.StatusCode)
	}
}

// TestBadSpecPassthrough: an invalid spec fails fast at the coordinator
// with 400 — no backend round-trip, no degraded queueing.
func TestBadSpecPassthrough(t *testing.T) {
	coord, _ := testCluster(t, 2, 0, nil)
	resp, body := doPost(t, coord, "/v1/runs", `{"scheme":"NO-SUCH-SCHEME"}`, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: %d %s, want 400", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "error") {
		t.Fatalf("bad spec body: %s", body)
	}
}

// TestEvictionAmortised pins the cost of the job-table cap as an exact count.
// evictLocked used to walk the whole insertion-order list on every submission
// once the table was full (about cap entries each: a long-lived simring fell
// from 1,066 to 470 requests/s); cutting back to a low-water mark cap/16 below
// the cap pays for one walk with cap/16 submissions. Over cap + 4*(cap/16)
// submissions the walks may visit at most 6*cap entries, the table may never
// exceed its cap, completed entries must go before live ones, and oldest first.
func TestEvictionAmortised(t *testing.T) {
	const limit, step = 64, 64 / 16
	c := &Coordinator{cfg: Config{JobTableCap: limit}, jobs: map[string]*coordJob{}}
	var live, done []string // ids in submission order
	submit := func(finished bool) {
		j := c.register("h", nil, "", 0, "j")
		j.done = finished
		if finished {
			done = append(done, j.id)
		} else {
			live = append(live, j.id)
		}
		if len(c.jobs) > limit || len(c.order) != len(c.jobs) {
			t.Fatalf("after %s: %d jobs, %d ids in order, cap %d", j.id, len(c.jobs), len(c.order), limit)
		}
	}
	for i := 0; i < limit+4*step; i++ {
		submit(i%4 != 0) // every fourth submission is still running
	}
	if c.evictVisited == 0 || c.evictVisited > 6*limit {
		t.Fatalf("eviction visited %d entries over %d submissions, want 1..%d", c.evictVisited, limit+4*step, 6*limit)
	}
	t.Logf("visited %d entries over %d submissions past a cap of %d", c.evictVisited, limit+4*step, limit)
	for _, id := range live {
		if c.jobs[id] == nil {
			t.Fatalf("live job %s evicted while completed ones remained", id)
		}
	}
	evicted := 0
	for i, id := range done {
		if c.jobs[id] != nil {
			continue
		}
		if evicted++; i > 0 && c.jobs[done[i-1]] != nil {
			t.Fatalf("completed job %s evicted before the older %s", id, done[i-1])
		}
	}
	if evicted < 4*step || evicted > 5*step {
		t.Fatalf("%d completed jobs evicted for %d submissions past the cap, want within one low-water step of it", evicted, 4*step)
	}

	// With nothing completed left, live entries go, oldest first, and only as
	// many as the cap requires.
	c = &Coordinator{cfg: Config{JobTableCap: limit}, jobs: map[string]*coordJob{}}
	live, done = nil, nil
	for i := 0; i < limit+3; i++ {
		submit(false)
	}
	for i, id := range live {
		if gone := c.jobs[id] == nil; gone != (i < 3) {
			t.Fatalf("live job %d of %d: evicted=%v", i, len(live), gone)
		}
	}
}
