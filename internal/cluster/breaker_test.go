package cluster

import (
	"sync"
	"testing"
)

// TestBreakerLifecycle: the first failure opens the breaker, further
// failures leave it open, and one success closes it; each transition fires
// the hook once.
func TestBreakerLifecycle(t *testing.T) {
	var transitions []string
	var b Breaker
	b.onChange = func(from, to BreakerState) {
		transitions = append(transitions, from.String()+">"+to.String())
	}

	if b.State() != BreakerClosed {
		t.Fatalf("zero breaker: state %v, want closed", b.State())
	}
	b.ReportFailure()
	if b.State() != BreakerOpen {
		t.Fatalf("after one failure: state %v, want open", b.State())
	}
	b.ReportFailure()
	b.ReportSuccess()
	if b.State() != BreakerClosed {
		t.Fatalf("after a success: state %v, want closed", b.State())
	}
	b.ReportSuccess()
	b.ReportFailure()

	want := []string{"closed>open", "open>closed", "closed>open"}
	if len(transitions) != len(want) {
		t.Fatalf("transitions %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transition %d = %s, want %s", i, transitions[i], want[i])
		}
	}
}

// TestBreakerSuccessWhileClosedIsQuiet: a report that changes nothing fires
// nothing, and failures racing from probers and proxied calls open the
// breaker with one transition.
func TestBreakerSuccessWhileClosedIsQuiet(t *testing.T) {
	var b Breaker
	var mu sync.Mutex
	fired := 0
	b.onChange = func(_, _ BreakerState) {
		mu.Lock()
		fired++
		mu.Unlock()
	}
	for i := 0; i < 5; i++ {
		b.ReportSuccess()
	}
	if fired != 0 {
		t.Fatalf("closed->closed successes fired %d transitions", fired)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 100; k++ {
				b.ReportFailure()
			}
		}()
	}
	wg.Wait()
	if fired != 1 || b.State() != BreakerOpen {
		t.Fatalf("racing failures fired %d transitions (state %v), want 1 to open", fired, b.State())
	}
}
