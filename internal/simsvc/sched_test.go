package simsvc

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// slowSpec returns a run long enough (~hundreds of ms) that it is still
// simulating while the test manipulates the queue around it. Distinct
// seeds make distinct spec hashes, defeating the cache and singleflight.
func slowSpec(seed uint64) RunSpec {
	s := tinySpec()
	s.Seed = seed
	s.Measure = 30000
	s.Radix = []int{4, 4}
	return s
}

func TestQueueFullRejection(t *testing.T) {
	store, _ := NewStore(8, "")
	sched := NewScheduler(SchedConfig{Workers: 1, QueueDepth: 2, Store: store})
	defer sched.Drain(context.Background())

	// One slow job occupies the single worker; once it is off the queue
	// and running, two more fill the queue to its depth limit.
	ids := make([]string, 0, 3)
	first, err := sched.Submit(slowSpec(1), "")
	if err != nil {
		t.Fatal(err)
	}
	ids = append(ids, first.ID)
	waitRunning(t, sched, first.ID)
	for seed := uint64(2); seed <= 3; seed++ {
		v, err := sched.Submit(slowSpec(seed), "")
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ids = append(ids, v.ID)
	}
	if _, err := sched.Submit(slowSpec(4), ""); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit beyond depth limit: err = %v, want ErrQueueFull", err)
	}
	// A cached spec still completes while the queue is full: cache hits
	// bypass the queue entirely.
	warm, err := tinySpec().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	payload, err := Execute(context.Background(), warm, nil)
	if err != nil {
		t.Fatal(err)
	}
	store.Put(warm.Hash(), payload)
	v, err := sched.Submit(tinySpec(), "")
	if err != nil || v.Status != StatusDone || !v.Cached {
		t.Errorf("cached submit during backpressure: %+v, %v", v, err)
	}
	// The earlier accepted jobs all still finish.
	for _, id := range ids {
		waitDone(t, sched, id)
	}
}

// waitRunning polls until a job leaves the queue.
func waitRunning(t *testing.T, sched *Scheduler, id string) {
	t.Helper()
	for i := 0; i < 20000; i++ {
		v, ok := sched.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if v.Status != StatusQueued {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never left the queue", id)
}

func TestDrainRejectsNewAndLosesNothing(t *testing.T) {
	store, _ := NewStore(16, "")
	sched := NewScheduler(SchedConfig{Workers: 2, QueueDepth: 8, Store: store})

	const jobs = 5
	ids := make([]string, jobs)
	for i := range ids {
		v, err := sched.Submit(slowSpec(uint64(100+i)), "")
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = v.ID
	}

	if err := sched.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := sched.Submit(slowSpec(999), ""); !errors.Is(err, ErrDraining) {
		t.Errorf("submit after drain: err = %v, want ErrDraining", err)
	}
	// Every job accepted before the drain completed; none were dropped.
	for i, id := range ids {
		v, ok := sched.Job(id)
		if !ok {
			t.Fatalf("job %d (%s) lost during drain", i, id)
		}
		if v.Status != StatusDone {
			t.Errorf("job %s: status %s after drain, want done (err %q)", id, v.Status, v.Error)
		}
		if len(v.Result) == 0 {
			t.Errorf("job %s: drained without a result payload", id)
		}
	}
	m := sched.Metrics()
	if !m.Draining {
		t.Error("metrics do not report draining")
	}
	if m.JobsDone != jobs || m.JobsFailed != 0 {
		t.Errorf("done=%d failed=%d, want %d/0", m.JobsDone, m.JobsFailed, jobs)
	}
	// Drain is idempotent.
	if err := sched.Drain(context.Background()); err != nil {
		t.Errorf("second drain: %v", err)
	}
}

func TestJobTimeoutFails(t *testing.T) {
	store, _ := NewStore(8, "")
	sched := NewScheduler(SchedConfig{
		Workers: 1, QueueDepth: 4, Store: store,
		JobTimeout: time.Nanosecond,
	})
	defer sched.Drain(context.Background())

	v, err := sched.Submit(slowSpec(7), "")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		j, ok := sched.Job(v.ID)
		if !ok {
			t.Fatal("job vanished")
		}
		if j.Status == StatusFailed {
			if j.Error == "" {
				t.Error("failed job carries no error message")
			}
			break
		}
		if j.Status == StatusDone {
			t.Fatal("job completed despite 1ns timeout")
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", j.Status)
		}
		time.Sleep(time.Millisecond)
	}
	if m := sched.Metrics(); m.JobsFailed != 1 {
		t.Errorf("JobsFailed = %d, want 1", m.JobsFailed)
	}
}

func TestMetricsCounters(t *testing.T) {
	store, _ := NewStore(8, "")
	sched := NewScheduler(SchedConfig{Workers: 2, QueueDepth: 8, Store: store})
	defer sched.Drain(context.Background())

	mustFinish(t, sched, tinySpec()) // cold: miss + executed
	mustFinish(t, sched, tinySpec()) // warm: submit-time hit
	m := sched.Metrics()
	if m.Cache.Misses != 1 || m.Cache.Executed != 1 {
		t.Errorf("misses=%d executed=%d, want 1/1", m.Cache.Misses, m.Cache.Executed)
	}
	if m.Cache.Hits != 1 {
		t.Errorf("hits=%d, want 1", m.Cache.Hits)
	}
	if m.JobsAccepted != 2 || m.JobsDone != 2 {
		t.Errorf("accepted=%d done=%d, want 2/2", m.JobsAccepted, m.JobsDone)
	}
	if m.JobLatencyUS.Count != 1 {
		// Only the executed job went through a worker; the hit completed
		// at submit time and records no queue-to-done latency.
		t.Errorf("latency count = %d, want 1", m.JobLatencyUS.Count)
	}
	if m.QueueCap != 8 || m.Workers != 2 {
		t.Errorf("static config wrong: %+v", m)
	}
}

func TestSubmitInvalidSpec(t *testing.T) {
	store, _ := NewStore(8, "")
	sched := NewScheduler(SchedConfig{Workers: 1, QueueDepth: 2, Store: store})
	defer sched.Drain(context.Background())

	if _, err := sched.Submit(RunSpec{Scheme: "bogus"}, ""); err == nil {
		t.Error("invalid spec accepted")
	}
	if m := sched.Metrics(); m.JobsAccepted != 0 {
		t.Errorf("invalid spec counted as accepted: %+v", m)
	}
}

func TestExpiredDrainCancelsInFlight(t *testing.T) {
	store, _ := NewStore(8, "")
	sched := NewScheduler(SchedConfig{Workers: 1, QueueDepth: 4, Store: store})

	v, err := sched.Submit(slowSpec(11), "")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := sched.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain with expired budget: err = %v", err)
	}
	// The in-flight job was cancelled, not lost: it is present and failed.
	j, ok := sched.Job(v.ID)
	if !ok {
		t.Fatal("job lost by expired drain")
	}
	if j.Status != StatusFailed {
		t.Errorf("status %s after forced drain, want failed", j.Status)
	}
}

func TestJobIDsAreSequential(t *testing.T) {
	store, _ := NewStore(8, "")
	sched := NewScheduler(SchedConfig{Workers: 1, QueueDepth: 8, Store: store})
	defer sched.Drain(context.Background())

	for i := 1; i <= 3; i++ {
		spec := tinySpec()
		spec.Seed = uint64(i)
		v, err := sched.Submit(spec, "")
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("j-%06d", i); v.ID != want {
			t.Errorf("job %d: ID %s, want %s", i, v.ID, want)
		}
	}
}

// waitSettled polls until a job reaches done or failed, returning the view.
func waitSettled(t *testing.T, sched *Scheduler, id string) JobView {
	t.Helper()
	for i := 0; i < 20000; i++ {
		v, ok := sched.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if v.Status == StatusDone || v.Status == StatusFailed {
			return v
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never settled", id)
	return JobView{}
}

// TestPanickingJobFailsWorkerSurvives: a spec whose execution panics must
// surface as a failed job — and the single worker must stay alive to run
// every job queued after it.
func TestPanickingJobFailsWorkerSurvives(t *testing.T) {
	store, _ := NewStore(8, "")
	sched := NewScheduler(SchedConfig{
		Workers: 1, QueueDepth: 8, Store: store,
		Exec: func(ctx context.Context, spec RunSpec, bus *obs.Bus) ([]byte, error) {
			if spec.Seed == 666 {
				panic("poisoned spec")
			}
			return []byte(`{}`), nil
		},
	})
	defer sched.Drain(context.Background())

	bad := tinySpec()
	bad.Seed = 666
	bv, err := sched.Submit(bad, "")
	if err != nil {
		t.Fatal(err)
	}
	v := waitSettled(t, sched, bv.ID)
	if v.Status != StatusFailed || !strings.Contains(v.Error, "panicked") {
		t.Fatalf("panicking job: status %s, error %q", v.Status, v.Error)
	}

	// The worker that recovered the panic still serves subsequent jobs.
	for seed := uint64(1); seed <= 3; seed++ {
		good := tinySpec()
		good.Seed = seed
		gv, err := sched.Submit(good, "")
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, sched, gv.ID)
	}
	m := sched.Metrics()
	if m.JobsFailed != 1 || m.JobsDone != 3 {
		t.Fatalf("failed=%d done=%d, want 1/3", m.JobsFailed, m.JobsDone)
	}
	if m.Running != 0 {
		t.Fatalf("running gauge leaked: %d", m.Running)
	}
}

// TestDeterministicFailureNotRetried: a job's error is a property of its
// spec — retrying would fail identically, so a failing job executes once and
// is published failed.
func TestDeterministicFailureNotRetried(t *testing.T) {
	store, _ := NewStore(8, "")
	var mu sync.Mutex
	attempts := 0
	sched := NewScheduler(SchedConfig{
		Workers: 1, QueueDepth: 8, Store: store,
		Exec: func(ctx context.Context, spec RunSpec, bus *obs.Bus) ([]byte, error) {
			mu.Lock()
			attempts++
			mu.Unlock()
			return nil, errors.New("invariant violation")
		},
	})
	defer sched.Drain(context.Background())

	v, err := sched.Submit(tinySpec(), "")
	if err != nil {
		t.Fatal(err)
	}
	got := waitSettled(t, sched, v.ID)
	if got.Status != StatusFailed {
		t.Fatalf("status %s, want failed", got.Status)
	}
	mu.Lock()
	n := attempts
	mu.Unlock()
	if n != 1 {
		t.Fatalf("deterministic failure executed %d times, want 1", n)
	}
}

// TestJobTableEvictsOldestFinished: the job table is bounded. Three times
// JobTableCap submissions (cache hits, the cheapest way a long-lived server
// accumulates jobs) retain at most the cap; a running and a queued job
// admitted first, the oldest entries in the table, survive every eviction;
// an evicted ID is forgotten while its result still answers by spec hash.
func TestJobTableEvictsOldestFinished(t *testing.T) {
	store, _ := NewStore(8, "")
	release := make(chan struct{})
	sched := NewScheduler(SchedConfig{Workers: 1, QueueDepth: 2, Store: store,
		Exec: func(ctx context.Context, spec RunSpec, bus *obs.Bus) ([]byte, error) {
			<-release
			return []byte(`{}`), nil
		}})
	defer sched.Drain(context.Background())

	running, err := sched.Submit(slowSpec(1), "")
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, sched, running.ID)
	queued, err := sched.Submit(slowSpec(2), "")
	if err != nil {
		t.Fatal(err)
	}

	warm, err := tinySpec().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	store.Put(warm.Hash(), []byte(`{"warm":true}`))
	var first, last JobView
	for i := 0; i < 3*JobTableCap; i++ {
		v, err := sched.Submit(tinySpec(), "")
		if err != nil || v.Status != StatusDone || !v.Cached {
			t.Fatalf("cached submit %d: %+v, %v", i, v, err)
		}
		if i == 0 {
			first = v
		}
		last = v
	}

	sched.mu.Lock()
	retained := len(sched.live) + sched.finished.n
	sched.mu.Unlock()
	if retained > JobTableCap {
		t.Errorf("job table holds %d jobs, cap %d", retained, JobTableCap)
	}
	if v, ok := sched.Job(running.ID); !ok || v.Status != StatusRunning {
		t.Errorf("running job evicted or disturbed: %+v, present=%v", v, ok)
	}
	if v, ok := sched.Job(queued.ID); !ok || v.Status != StatusQueued {
		t.Errorf("queued job evicted or disturbed: %+v, present=%v", v, ok)
	}
	if _, ok := sched.Job(first.ID); ok {
		t.Errorf("oldest finished job %s still retained", first.ID)
	}
	if _, ok := sched.Job(last.ID); !ok {
		t.Errorf("newest finished job %s already evicted", last.ID)
	}
	if p, ok := store.Get(first.SpecHash); !ok || string(p) != `{"warm":true}` {
		t.Errorf("evicted job's result no longer answers by hash: %q, %v", p, ok)
	}

	close(release)
	waitDone(t, sched, running.ID)
	waitDone(t, sched, queued.ID)
}
