package telemetry

import (
	"context"
	"regexp"
	"sync"
	"testing"
	"time"
)

func TestRequestIDFormatAndUniqueness(t *testing.T) {
	hex16 := regexp.MustCompile(`^[0-9a-f]{16}$`)
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewRequestID()
		if !hex16.MatchString(id) {
			t.Fatalf("request id %q not 16 hex digits", id)
		}
		if seen[id] {
			t.Fatalf("duplicate request id %q", id)
		}
		seen[id] = true
	}
}

func TestRequestIDContext(t *testing.T) {
	ctx := context.Background()
	if RequestID(ctx) != "" {
		t.Errorf("unstamped ctx has id %q", RequestID(ctx))
	}
	ctx = WithRequestID(ctx, "abc")
	if RequestID(ctx) != "abc" {
		t.Errorf("stamped ctx lost id: %q", RequestID(ctx))
	}
}

func TestSpansAccumulate(t *testing.T) {
	s := NewSpans()
	s.Add("execute", 3*time.Millisecond)
	s.Add("encode", 500*time.Microsecond)
	s.Add("execute", 2*time.Millisecond) // a retry folds into the same span

	list := s.List()
	if len(list) != 2 {
		t.Fatalf("got %d spans, want 2: %v", len(list), list)
	}
	if list[0].Name != "execute" || list[0].DurUS != 5000 {
		t.Errorf("execute span wrong: %+v", list[0])
	}
	if list[1].Name != "encode" || list[1].DurUS != 500 {
		t.Errorf("encode span wrong: %+v", list[1])
	}
}

func TestSpansNilSafe(t *testing.T) {
	var s *Spans
	s.Add("x", time.Second) // must not panic
	if s.List() != nil {
		t.Errorf("nil collector listed spans")
	}
	// AddSpan on a bare context is likewise a no-op.
	AddSpan(context.Background(), "x", time.Second)
}

func TestSpansContext(t *testing.T) {
	s := NewSpans()
	ctx := WithSpans(context.Background(), s)
	AddSpan(ctx, "cache-lookup", 250*time.Microsecond)
	list := s.List()
	if len(list) != 1 || list[0].Name != "cache-lookup" || list[0].DurUS != 250 {
		t.Errorf("ctx-routed span wrong: %v", list)
	}
}

func TestSpansConcurrent(t *testing.T) {
	s := NewSpans()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.Add("work", time.Microsecond)
			}
		}()
	}
	wg.Wait()
	list := s.List()
	if len(list) != 1 || list[0].DurUS != 4000 {
		t.Errorf("concurrent adds lost time: %v", list)
	}
}
