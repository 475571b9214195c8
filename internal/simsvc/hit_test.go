package simsvc

import (
	"bytes"
	"context"
	"log"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// countingWriter is the access-log sink bench/serve.go uses: not io.Discard,
// which log short-circuits before formatting the line.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// newHitService builds what a serve_hot block builds — a memory store
// prefilled through Put with Execute's compact payload, one worker, the
// counting logger — and returns a function that POSTs the spec with an
// httptest request and recorder, as the benchmark does, and returns the reply.
func newHitService(tb testing.TB) func() *httptest.ResponseRecorder {
	tb.Helper()
	spec, err := tinySpec().Normalized()
	if err != nil {
		tb.Fatal(err)
	}
	payload, err := Execute(context.Background(), spec, nil)
	if err != nil {
		tb.Fatal(err)
	}
	store, _ := NewStore(4096, "")
	if err := store.Put(spec.Hash(), payload); err != nil {
		tb.Fatal(err)
	}
	sched := NewScheduler(SchedConfig{Workers: 1, Store: store})
	tb.Cleanup(func() { sched.Drain(context.Background()) })
	api := NewServer(sched)
	api.SetLogger(log.New(&countingWriter{}, "", log.LstdFlags))
	body := []byte(tinySpecJSON) // tinySpec as a client spells it; spec is its normal form
	return func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		api.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(body)))
		return w
	}
}

// hitAllocs is what one POST answered from the cache allocates, the 14
// allocations of httptest's request and recorder included: exact, so a change
// that adds one fails here and one that removes some lowers the number. The
// job table's ring and index grow a few times in 2000 posts (under 0.01 of an
// allocation each); the integer average AllocsPerRun takes drops that
// fraction. A hit used to build a job, its span collector and the collector's
// slice, and to box its number for fmt: 76.
const hitAllocs = 72

// What the job table keeps per finished job (TestFinishedJobFootprint): an
// 88-byte record in the ring, its request ID and its index entry, 0.99 heap
// objects and 138 B here, pinned with a little room for the map's layout.
const (
	finishedJobObjects = 1.02
	finishedJobBytes   = 145.0
)

// TestHitAllocBudget pins the allocations of a cache hit at an exact count and
// its bytes under 12 KB. The encoder used to be built per request and to
// compact, escape and indent the stored payload into a buffer grown from
// nothing: 86 allocations and 16.5 KB by this test.
func TestHitAllocBudget(t *testing.T) {
	if testing.Short() || raceEnabled {
		// Under the race detector sync.Pool drops a quarter of what it is
		// given, so the reply buffer is rebuilt at random.
		t.Skip("skipping allocation measurement in -short mode and under -race")
	}
	post := newHitService(t)
	if w := post(); w.Code != http.StatusOK || !bytes.Contains(w.Body.Bytes(), []byte(`"cached": true`)) {
		t.Fatalf("not a hit: %d %s", w.Code, w.Body)
	}
	// Past the job table's first few growth steps.
	for i := 0; i < 300; i++ {
		post()
	}
	if got := testing.AllocsPerRun(2000, func() { post() }); got != hitAllocs {
		t.Errorf("a cache hit makes %v allocations, pinned at %d", got, hitAllocs)
	}

	// TotalAlloc counts the whole process; the smallest of three readings
	// is the one no other goroutine added to.
	const posts = 2000
	least := ^uint64(0)
	for reading := 0; reading < 3; reading++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < posts; i++ {
			post()
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/posts)
	}
	if least > 12<<10 {
		t.Errorf("a cache hit allocates %d bytes, budget 12 KB", least)
	}
	t.Logf("a cache hit: %d allocations, %d bytes", hitAllocs, least)
}

// liveHeap is the heap's object count and bytes after a collection; two, so
// that sync.Pool's victim cache is gone too.
func liveHeap() (objects, bytes uint64) {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapObjects, m.HeapAlloc
}

// TestFinishedJobFootprint pins what the job table keeps per finished job:
// the heap's growth over 2 × jobTableCap hits, which leave jobTableCap jobs
// retained, per retained job. Each used to be a job struct and seven more
// objects, 8.02 objects and 592.7 B by this test, every one of them marked
// again by each collection.
func TestFinishedJobFootprint(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("skipping heap measurement in -short mode and under -race")
	}
	post := newHitService(t)
	post()
	objects0, bytes0 := liveHeap()
	for i := 0; i < 2*jobTableCap; i++ {
		post()
	}
	objects1, bytes1 := liveHeap()
	objects := float64(int64(objects1-objects0)) / jobTableCap
	bytes := float64(int64(bytes1-bytes0)) / jobTableCap
	t.Logf("a retained job: %.2f heap objects, %.1f B", objects, bytes)
	if objects > finishedJobObjects || bytes > finishedJobBytes {
		t.Errorf("a retained job holds %.2f heap objects and %.1f B, pinned at %.2f and %.0f",
			objects, bytes, finishedJobObjects, finishedJobBytes)
	}
}

// BenchmarkPostHit is the serve_hot op under go test -bench, for profiles:
// go test -run '^$' -bench PostHit -cpu 1 -cpuprofile cpu.out ./internal/simsvc
func BenchmarkPostHit(b *testing.B) {
	post := newHitService(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}
