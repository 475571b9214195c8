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
// slice, and to box its number for fmt: 76. It then had the encoder write its
// whole job but the result, and built the spec's canonical string to hash it:
// 72. Now the encoder writes only the members that are the request's own, the
// spec's echo coming from its store entry, and the hash is folded from a stack
// buffer: 61. Then the spec was decoded in one pass without encoding/json's
// Decoder, and the request's own members written without the encoder: 49. Now
// the shell builds its access-log line and counter key without fmt or a
// joined string, reads and writes X-Request-Id under its canonical key and
// mints an ID in one allocation, and Submit validates without building slices
// and looks the store up without a hash string of its own: 33. Now the
// handler reads the request ID from the response header instead of a copy of
// the request carrying it in a context value: 30.
const hitAllocs = 30

// hitBytes is TestHitAllocBudget's byte budget: what a hit reads, under 5%
// over.
const hitBytes = 8340

// What the job table keeps per finished job (TestFinishedJobFootprint): an
// 80-byte record in the ring, its request ID and its index entry, 0.99 heap
// objects and 130 B here, pinned with a little room for the map's layout.
const (
	finishedJobObjects = 1.02
	finishedJobBytes   = 137.0
)

// TestHitAllocBudget pins the allocations of a cache hit at an exact count and
// its bytes under hitBytes. The encoder used to be built per request and to
// compact, escape and indent the stored payload into a buffer grown from
// nothing: 86 allocations and 16.5 KB by this test. Encoding the spec echo per
// request and hashing through a canonical string came to 72 and 10,674 B;
// encoding the request's own members and decoding by reflection, to 61 and
// 9,815 B under a 10 KB budget; formatting the access log through fmt, to 49
// and 8,542-8,546 B under 8,960; carrying the request ID in a context value,
// to 33 and 8,322-8,329 B under 8,740. The hit now reads 7,939-7,944 B.
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
	allocs := testing.AllocsPerRun(2000, func() { post() })
	if allocs != hitAllocs {
		t.Errorf("a cache hit makes %v allocations, pinned at %d", allocs, hitAllocs)
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
	if least > hitBytes {
		t.Errorf("a cache hit allocates %d bytes, budget %d", least, hitBytes)
	}
	t.Logf("a cache hit: %v allocations, %d bytes", allocs, least)
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
// the heap's growth over 2 × JobTableCap hits, which leave JobTableCap jobs
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
	for i := 0; i < 2*JobTableCap; i++ {
		post()
	}
	objects1, bytes1 := liveHeap()
	objects := float64(int64(objects1-objects0)) / JobTableCap
	bytes := float64(int64(bytes1-bytes0)) / JobTableCap
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
