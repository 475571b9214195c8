package simsvc

import (
	"slices"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestRecordSpansAccumulate checks a record's packed spans: repeated adds
// under one name sum into one span (a retried execute reads as one total),
// spans list in first-recorded order, and a record holding every name but
// "coalesce" has room for all of them.
func TestRecordSpansAccumulate(t *testing.T) {
	r := record{ent: &entry{}, status: jobRunning}
	if v := r.view(); v.Spans != nil {
		t.Errorf("a record with no spans lists %v", v.Spans)
	}
	r.addSpan(spanExecute, 3*time.Millisecond)
	r.addSpan(spanEncode, 500*time.Microsecond)
	r.addSpan(spanExecute, 2*time.Millisecond)
	want := []telemetry.Span{{Name: "execute", DurUS: 5000}, {Name: "encode", DurUS: 500}}
	if got := r.view().Spans; !slices.Equal(got, want) {
		t.Errorf("spans %v, want %v", got, want)
	}

	r.addSpan(spanQueueWait, 0)
	r.addSpan(spanCacheLookup, 250*time.Microsecond)
	r.addSpan(spanCacheStore, time.Second)
	r.addSpan(spanCacheLookup, 250*time.Microsecond)
	want = append(want,
		telemetry.Span{Name: "queue-wait", DurUS: 0},
		telemetry.Span{Name: "cache-lookup", DurUS: 500},
		telemetry.Span{Name: "cache-store", DurUS: 1_000_000})
	if got := r.view().Spans; !slices.Equal(got, want) {
		t.Errorf("a full record's spans %v, want %v", got, want)
	}
}
