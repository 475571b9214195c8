package simsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestLRUEvictionOrder(t *testing.T) {
	s, err := NewStore(2, "")
	if err != nil {
		t.Fatal(err)
	}
	s.Put("a", []byte(`"A"`))
	s.Put("b", []byte(`"B"`))
	// Touch a so b is the least recently used.
	if _, ok := s.Get("a"); !ok {
		t.Fatal("a missing")
	}
	s.Put("c", []byte(`"C"`))
	if _, ok := s.Get("b"); ok {
		t.Error("b should have been evicted (LRU), a was touched more recently")
	}
	if _, ok := s.Get("a"); !ok {
		t.Error("a evicted despite being recently used")
	}
	if _, ok := s.Get("c"); !ok {
		t.Error("c missing")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
}

func TestLRUUpdateExisting(t *testing.T) {
	s, _ := NewStore(2, "")
	s.Put("a", []byte(`"A1"`))
	s.Put("a", []byte(`"A2"`))
	if s.Len() != 1 {
		t.Errorf("re-Put duplicated the entry: Len = %d", s.Len())
	}
	p, _ := s.Get("a")
	if string(p) != `"A2"` {
		t.Errorf("Get = %q, want updated payload", p)
	}
}

// TestMemoryMissAllocatesNothing: a memory store's miss, which every job a
// server executes pays on submission and again on its worker's recheck,
// returns before building an entry or a hash string for it.
func TestMemoryMissAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocator pads")
	}
	s, _ := NewStore(2, "")
	spec, key := tinySpec(), []byte("0123456789abcdef")
	if got := testing.AllocsPerRun(100, func() { s.lookup(key, &spec) }); got != 0 {
		t.Errorf("a memory miss makes %v allocations, want 0", got)
	}
}

func TestDiskRoundTripAndPromotion(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("aaaa", []byte(`{"x":1}`))
	s.Put("bbbb", []byte(`{"x":2}`)) // evicts aaaa from memory, not from disk

	if _, err := os.Stat(filepath.Join(dir, "aaaa.json")); err != nil {
		t.Fatalf("evicted entry not on disk: %v", err)
	}
	p, ok := s.Get("aaaa") // reloads from disk, evicting bbbb
	if !ok || string(p) != `{"x":1}` {
		t.Fatalf("disk reload failed: %q %v", p, ok)
	}

	// A fresh store over the same directory serves previous results.
	s2, err := NewStore(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	for hash, want := range map[string]string{"aaaa": `{"x":1}`, "bbbb": `{"x":2}`} {
		p, ok := s2.Get(hash)
		if !ok || string(p) != want {
			t.Errorf("restart lost %s: %q %v", hash, p, ok)
		}
	}
}

func TestFlightGroupCoalesces(t *testing.T) {
	var g flightGroup
	started := make(chan struct{})
	release := make(chan struct{})
	var calls int

	var wg sync.WaitGroup
	results := make([]*entry, 2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		p, err, _ := g.do(context.Background(), "k", func() (*entry, error) {
			calls++
			close(started)
			<-release
			return &entry{payload: []byte(`"payload"`)}, nil
		})
		if err != nil {
			t.Error(err)
		}
		results[0] = p
	}()
	<-started
	// Release the first call only once this goroutine has (at minimum)
	// entered do; the duplicate lookup happens under g.mu before the first
	// call can complete and deregister, so the dup is guaranteed to share.
	time.AfterFunc(50*time.Millisecond, func() { close(release) })
	p, err, shared := g.do(context.Background(), "k", func() (*entry, error) {
		t.Error("second fn invoked despite in-flight call")
		return nil, nil
	})
	if err != nil || !shared {
		t.Errorf("err=%v shared=%v, want nil/true", err, shared)
	}
	results[1] = p
	wg.Wait()
	if calls != 1 {
		t.Errorf("fn ran %d times, want 1", calls)
	}
	if results[0] == nil || results[0] != results[1] {
		t.Errorf("coalesced results differ: %+v vs %+v", results[0], results[1])
	}
}

// TestCacheHitByteIdentical is the acceptance check: a cold run and a
// cache-served repeat produce byte-identical payloads with equal delivery
// digests, both through Execute directly and through the scheduler.
func TestCacheHitByteIdentical(t *testing.T) {
	spec, err := tinySpec().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Execute(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	cold2, err := Execute(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold, cold2) {
		t.Fatalf("two cold runs differ:\n%s\nvs\n%s", cold, cold2)
	}

	store, _ := NewStore(8, t.TempDir())
	sched := NewScheduler(SchedConfig{Workers: 2, QueueDepth: 8, Store: store})
	defer sched.Drain(context.Background())

	first := mustFinish(t, sched, tinySpec())
	if first.Cached {
		t.Fatal("first submission reported cached")
	}
	second := mustFinish(t, sched, tinySpec())
	if !second.Cached {
		t.Fatal("repeat submission missed the cache")
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Errorf("cached result not byte-identical:\n%s\nvs\n%s", first.Result, second.Result)
	}
	if !bytes.Equal(first.Result, cold) {
		t.Errorf("served result differs from direct Execute:\n%s\nvs\n%s", first.Result, cold)
	}
	var r1, r2 Result
	if err := json.Unmarshal(first.Result, &r1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(second.Result, &r2); err != nil {
		t.Fatal(err)
	}
	if r1.Summary.Digest == "" || r1.Summary.Digest != r2.Summary.Digest {
		t.Errorf("delivery digests differ or empty: %q vs %q", r1.Summary.Digest, r2.Summary.Digest)
	}
}

// TestSingleflightDedup is the acceptance check that two concurrent
// identical submissions run the simulation once and agree on the digest.
func TestSingleflightDedup(t *testing.T) {
	store, _ := NewStore(8, "")
	sched := NewScheduler(SchedConfig{Workers: 4, QueueDepth: 8, Store: store})
	defer sched.Drain(context.Background())

	// A somewhat longer run so the two jobs genuinely overlap.
	spec := tinySpec()
	spec.Measure = 20000
	spec.Radix = []int{4, 4}

	views := make([]JobView, 2)
	var mu sync.Mutex
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := sched.Submit(context.Background(), spec)
			mu.Lock()
			views[i], errs[i] = v, err
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	done := make([]JobView, 2)
	for i, v := range views {
		done[i] = waitDone(t, sched, v.ID)
	}
	if m := sched.Metrics(); m.Cache.Executed != 1 {
		t.Errorf("executed %d simulations for identical concurrent specs, want 1", m.Cache.Executed)
	}
	if !bytes.Equal(done[0].Result, done[1].Result) {
		t.Errorf("concurrent identical specs returned different payloads")
	}
	var r0, r1 Result
	json.Unmarshal(done[0].Result, &r0)
	json.Unmarshal(done[1].Result, &r1)
	if r0.Summary.Digest != r1.Summary.Digest || r0.Summary.Digest == "" {
		t.Errorf("digests differ: %q vs %q", r0.Summary.Digest, r1.Summary.Digest)
	}
}

// mustFinish submits a spec and waits for the job to complete.
func mustFinish(t *testing.T, sched *Scheduler, spec RunSpec) JobView {
	t.Helper()
	v, err := sched.Submit(context.Background(), spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	return waitDone(t, sched, v.ID)
}

// waitDone polls until a job leaves the queue/running states.
func waitDone(t *testing.T, sched *Scheduler, id string) JobView {
	t.Helper()
	for i := 0; i < 20000; i++ {
		v, ok := sched.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		switch v.Status {
		case StatusDone:
			return v
		case StatusFailed:
			t.Fatalf("job %s failed: %s", id, v.Error)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobView{}
}

// TestFlightGroupWaiterCancellation guards the hedging path: cancelling a
// hedged request abandons one coalesced waiter mid-execution. The shared run
// must be unaffected — the cancelled waiter gets ctx.Err() promptly, the
// remaining waiters still receive the result, and the cache is still
// populated by the run they piggybacked on.
func TestFlightGroupWaiterCancellation(t *testing.T) {
	var g flightGroup
	store, err := NewStore(4, "")
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	release := make(chan struct{})

	leaderErr := make(chan error, 1)
	go func() {
		_, err, _ := g.do(context.Background(), "k", func() (*entry, error) {
			close(started)
			<-release
			return store.put("k", []byte(`"payload"`), nil)
		})
		leaderErr <- err
	}()
	<-started

	dupFn := func() (*entry, error) {
		t.Error("duplicate fn invoked despite in-flight call")
		return nil, nil
	}

	// One waiter that will cancel mid-execution, one that stays.
	ctx, cancel := context.WithCancel(context.Background())
	cancelledErr := make(chan error, 1)
	go func() {
		_, err, shared := g.do(ctx, "k", dupFn)
		if !shared {
			t.Error("cancelling waiter did not coalesce")
		}
		cancelledErr <- err
	}()
	stayedPayload := make(chan *entry, 1)
	go func() {
		p, err, shared := g.do(context.Background(), "k", dupFn)
		if err != nil || !shared {
			t.Errorf("surviving waiter: err=%v shared=%v, want nil/true", err, shared)
		}
		stayedPayload <- p
	}()

	// Both waiters are inside do well before the run is released (same
	// timing idiom as TestFlightGroupCoalesces): the leader holds the key
	// until release, so anything entering earlier coalesces.
	time.AfterFunc(50*time.Millisecond, cancel)
	if err := <-cancelledErr; err != context.Canceled {
		t.Fatalf("cancelled waiter got %v, want context.Canceled", err)
	}
	// The cancelled waiter returned while the run is still in flight; only
	// now let it finish.
	close(release)

	if err := <-leaderErr; err != nil {
		t.Fatalf("shared run failed after waiter cancellation: %v", err)
	}
	if p := <-stayedPayload; p == nil || !bytes.Equal(p.payload, []byte(`"payload"`)) {
		t.Fatalf("surviving waiter got %+v, want payload %q", p, `"payload"`)
	}
	if p, ok := store.Get("k"); !ok || !bytes.Equal(p, []byte(`"payload"`)) {
		t.Fatalf("cache not populated after waiter cancellation: %q %v", p, ok)
	}
}

// TestCorruptDiskEntryIsAMiss: a cache file that is not one JSON document —
// cut short by a full disk, emptied, a byte flipped, something appended — used
// to be promoted as it was and answered 200 with an empty body for ever. It is
// a miss: the spec queues and executes, the fresh result replaces the file, the
// damaged one is kept beside it as <hash>.json.corrupt, and one line says so.
func TestCorruptDiskEntryIsAMiss(t *testing.T) {
	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)

	spec, err := tinySpec().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	hash := spec.Hash()
	want, err := Execute(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Replace(want, []byte("}"), []byte("]"), 1)
	for name, damaged := range map[string][]byte{
		"truncated":        []byte(`{"summary":{"digest":"ab`),
		"empty":            {},
		"flipped brace":    flipped,
		"trailing garbage": append(append([]byte(nil), want...), "\n{"...),
	} {
		logged.Reset()
		dir := t.TempDir()
		file := filepath.Join(dir, hash+".json")
		if err := os.WriteFile(file, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		store, err := NewStore(4, dir)
		if err != nil {
			t.Fatal(err)
		}
		srv := newReplyServer(t, SchedConfig{Workers: 1, QueueDepth: 4, Store: store})

		if w := srv.do(http.MethodGet, "/v1/runs/"+hash, ""); w.Code != http.StatusNotFound {
			t.Errorf("%s: GET by hash: %d %s, want 404", name, w.Code, w.Body)
		}
		if kept, err := os.ReadFile(file + ".corrupt"); err != nil || !bytes.Equal(kept, damaged) {
			t.Errorf("%s: damaged file not kept as .corrupt: %q, %v", name, kept, err)
		}
		if n := strings.Count(logged.String(), "\n"); n != 1 || !strings.Contains(logged.String(), hash) {
			t.Errorf("%s: want one log line naming %s, got %q", name, hash, logged.String())
		}

		// Put the damaged file back: the POST path must reach the same verdict.
		if err := os.WriteFile(file, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		w := srv.do(http.MethodPost, "/v1/runs", tinySpecJSON)
		if w.Code != http.StatusAccepted {
			t.Fatalf("%s: POST: %d %q, want 202", name, w.Code, w.Body)
		}
		var queued JobView
		if err := json.Unmarshal(w.Body.Bytes(), &queued); err != nil {
			t.Fatal(err)
		}
		if done := waitDone(t, srv.sched, queued.ID); done.Cached || !bytes.Equal(done.Result, want) {
			t.Errorf("%s: re-executed job: cached=%v, result %s\nwant %s", name, done.Cached, done.Result, want)
		}
		if m := srv.sched.Metrics(); m.Cache.Hits != 0 || m.Cache.Executed != 1 {
			t.Errorf("%s: hits %d executed %d, want 0 and 1", name, m.Cache.Hits, m.Cache.Executed)
		}
		if onDisk, err := os.ReadFile(file); err != nil || !bytes.Equal(onDisk, want) {
			t.Errorf("%s: file not replaced by the fresh result: %q, %v", name, onDisk, err)
		}
		w = srv.do(http.MethodPost, "/v1/runs", tinySpecJSON)
		if hit := checkReplyBytes[JobView](t, name+": POST after repair", w.Body.Bytes()); w.Code != http.StatusOK || !hit.Cached {
			t.Errorf("%s: POST after repair: %d %s", name, w.Code, w.Body)
		}
	}
}
