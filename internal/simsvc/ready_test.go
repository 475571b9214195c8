package simsvc

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// blockingExec returns an Exec stub that parks every job until release is
// closed, so tests can hold the queue in a known shape.
func blockingExec(release <-chan struct{}) func(context.Context, RunSpec, *obs.Bus) ([]byte, error) {
	return func(ctx context.Context, spec RunSpec, _ *obs.Bus) ([]byte, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return []byte(`{"stub":"` + spec.Hash() + `"}`), nil
	}
}

func seededSpec(seed uint64) RunSpec {
	s := tinySpec()
	s.Seed = seed
	return s
}

// TestReadyzSplitsFromHealthz pins the liveness/readiness split: a
// saturated or draining scheduler keeps answering 200 on /healthz (the
// process is alive) while /readyz flips to 503, so a coordinator's prober
// stops routing to it instead of burning retries on 429/503 submissions.
func TestReadyzSplitsFromHealthz(t *testing.T) {
	release := make(chan struct{})
	srv, sched := newTestServer(t, SchedConfig{
		Workers: 1, QueueDepth: 2, Exec: blockingExec(release),
	})

	resp, _ := getJSON(t, srv.URL+"/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("idle readyz: %d, want 200", resp.StatusCode)
	}

	// One running + two queued saturates the queue.
	fillBacklog(t, sched)

	resp, body := getJSON(t, srv.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated readyz: %d %s, want 503", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("saturated readyz carries no Retry-After")
	}
	resp, _ = getJSON(t, srv.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while saturated: %d, want 200 (liveness is not readiness)", resp.StatusCode)
	}

	// Draining: readiness drops even after the queue empties.
	close(release)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sched.Drain(context.Background())
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if ok, reason := sched.Ready(); !ok && reason == "draining" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("scheduler never reported draining")
		}
		time.Sleep(time.Millisecond)
	}
	resp, _ = getJSON(t, srv.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz: %d, want 503", resp.StatusCode)
	}
	resp, _ = getJSON(t, srv.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining: %d, want 200", resp.StatusCode)
	}
	wg.Wait()
}

// fillBacklog saturates a Workers:1/QueueDepth:2 scheduler into a known
// shape: one job running (off the queue) plus two queued.
func fillBacklog(t *testing.T, sched *Scheduler) {
	t.Helper()
	first, err := sched.Submit(seededSpec(1), "")
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, sched, first.ID)
	for seed := uint64(2); seed <= 3; seed++ {
		if _, err := sched.Submit(seededSpec(seed), ""); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	waitSaturated(t, sched)
}

func waitSaturated(t *testing.T, sched *Scheduler) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if ok, reason := sched.Ready(); !ok && reason == "queue saturated" {
			return
		}
		if time.Now().After(deadline) {
			ok, reason := sched.Ready()
			t.Fatalf("queue never saturated: ready=%v reason=%q", ok, reason)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRetryAfterTracksBacklog pins the derived Retry-After: with no latency
// observations the p50 is assumed 1s, so a backlog of one running + two
// queued jobs yields Retry-After: 3 on the 429 — not the old hardcoded 1.
func TestRetryAfterTracksBacklog(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	srv, sched := newTestServer(t, SchedConfig{
		Workers: 1, QueueDepth: 2, Exec: blockingExec(release),
	})
	fillBacklog(t, sched)

	spec, _ := json.Marshal(seededSpec(9))
	resp, body := postJSON(t, srv.URL+"/v1/runs", string(spec))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit to full queue: %d %s, want 429", resp.StatusCode, body)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("bad Retry-After %q: %v", resp.Header.Get("Retry-After"), err)
	}
	if ra != 3 {
		t.Fatalf("Retry-After = %d, want 3 (depth 3 x assumed 1s p50)", ra)
	}
	if got := sched.RetryAfterSeconds(); got != 3 {
		t.Fatalf("RetryAfterSeconds = %d, want 3", got)
	}
}

// TestRetryAfterClamp pins the [1, 30] clamp at both ends.
func TestRetryAfterClamp(t *testing.T) {
	store, _ := NewStore(4, "")
	sched := NewScheduler(SchedConfig{Workers: 1, QueueDepth: 64, Store: store})
	defer sched.Drain(context.Background())
	if got := sched.RetryAfterSeconds(); got != 1 {
		t.Fatalf("empty scheduler RetryAfterSeconds = %d, want 1", got)
	}

	release := make(chan struct{})
	deep := NewScheduler(SchedConfig{
		Workers: 1, QueueDepth: 64, Store: store, Exec: blockingExec(release),
	})
	// LIFO: release the parked workers first, then drain.
	defer deep.Drain(context.Background())
	defer close(release)
	for seed := uint64(1); seed <= 40; seed++ {
		if _, err := deep.Submit(seededSpec(seed), ""); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	if got := deep.RetryAfterSeconds(); got != 30 {
		t.Fatalf("deep-backlog RetryAfterSeconds = %d, want clamp at 30", got)
	}
}

// TestContentAddressedGet pins the cross-shard read path: GET /v1/runs with
// a 16-hex spec hash serves the cached Result (or 404), no job ID needed.
func TestContentAddressedGet(t *testing.T) {
	store, _ := NewStore(8, "")
	srv, _ := newTestServer(t, SchedConfig{Workers: 1, QueueDepth: 2, Store: store})

	spec, err := tinySpec().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	hash := spec.Hash()
	resp, _ := getJSON(t, srv.URL+"/v1/runs/"+hash)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("uncached hash: %d, want 404", resp.StatusCode)
	}

	payload := []byte(`{"digest":"feedface"}`)
	store.Put(hash, payload)
	resp, body := getJSON(t, srv.URL+"/v1/runs/"+hash)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached hash: %d %s, want 200", resp.StatusCode, body)
	}
	var v CachedView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.SpecHash != hash || v.Status != StatusDone || !v.Cached {
		t.Fatalf("cached view %+v", v)
	}
	var got map[string]string
	if err := json.Unmarshal(v.Result, &got); err != nil {
		t.Fatal(err)
	}
	if got["digest"] != "feedface" {
		t.Fatalf("result round-trip lost payload: %s", v.Result)
	}

	// Job IDs are not hash-shaped and hashes are not job-shaped.
	if IsSpecHash("j-000001") || IsSpecHash("0123456789abcdeF") || !IsSpecHash("0123456789abcdef") {
		t.Fatal("IsSpecHash misclassifies")
	}
}
