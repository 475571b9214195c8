package obs

import (
	"errors"
	"strings"
	"testing"
)

// Edge cases of the episode tracker: zero-length episodes, detections that
// overlap an open episode, and sinks whose underlying writer fails while an
// episode stream is being written out.

// TestZeroLengthEpisode: a knot observed and resolved in the same cycle (a
// rescue firing on the detection scan's own cycle) is a real episode of
// duration zero — not a negative or still-open one.
func TestZeroLengthEpisode(t *testing.T) {
	sink := NewRingSink(8)
	tr := &EpisodeTracker{Bus: NewBus(sink)}
	observe(tr, 100, 3, chain2())
	resolved(tr, 100, "rescue")
	eps := tr.Episodes()
	if len(eps) != 1 {
		t.Fatalf("episodes = %d, want 1", len(eps))
	}
	ep := eps[0]
	if ep.Duration() != 0 {
		t.Fatalf("duration = %d, want 0", ep.Duration())
	}
	if ep.Resolution != "rescue" || tr.Open() != nil {
		t.Fatalf("zero-length episode not closed cleanly: %+v", ep)
	}
	evs := sink.Events()
	if len(evs) != 2 || evs[0].Kind != KindEpisodeOpen || evs[1].Kind != KindEpisodeClose {
		t.Fatalf("bus events = %+v, want open then close", evs)
	}
	if evs[1].Aux != 0 {
		t.Fatalf("close event duration = %d, want 0", evs[1].Aux)
	}
	if !strings.Contains(ep.Format(), "0 cycles") {
		t.Fatalf("formatted episode does not show zero duration:\n%s", ep.Format())
	}
}

// TestOverlappingDetections: while an episode is open, further scans that
// still see a knot — even a different-sized one — must neither open a second
// episode nor rewrite the formation snapshot; and a new knot on the very
// cycle an old episode dissolves starts a fresh episode with a fresh ID.
func TestOverlappingDetections(t *testing.T) {
	tr := &EpisodeTracker{}
	observe(tr, 100, 2, chain2())
	first := tr.Open()

	// The knot grows: still the same episode, formation snapshot untouched.
	bigger := append(chain2(), WaitResource{Kind: "vc", Desc: "c", WaitsFor: []int{0}})
	observe(tr, 150, 5, bigger)
	if tr.Open() != first {
		t.Fatal("overlapping detection replaced the open episode")
	}
	if first.Resources != 2 || len(first.Chain) != 2 || first.Formed != 100 {
		t.Fatalf("overlapping detection rewrote the formation snapshot: %+v", first)
	}

	// Dissolves at 200; a knot observed on the same cycle opens episode 1.
	observe(tr, 200, 0, nil)
	observe(tr, 200, 1, chain2()[:1])
	second := tr.Open()
	if second == nil || second == first {
		t.Fatal("back-to-back knot did not open a fresh episode")
	}
	if second.ID != first.ID+1 || second.Formed != 200 {
		t.Fatalf("second episode = %+v, want ID %d formed @200", second, first.ID+1)
	}
	if got := tr.Episodes(); len(got) != 2 || got[0].Resolution != "dissolved" || got[1] != second {
		t.Fatalf("episodes = %+v", got)
	}
}

// TestWriteJSONIncludesOpenEpisode: an episode still in flight appears last
// in the export, marked open with no resolution cycle.
func TestWriteJSONIncludesOpenEpisode(t *testing.T) {
	tr := &EpisodeTracker{}
	observe(tr, 10, 1, chain2()[:1])
	resolved(tr, 20, "nack")
	observe(tr, 30, 2, chain2())
	var b strings.Builder
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("exported %d lines, want 2", len(lines))
	}
	if !strings.Contains(lines[1], `"resolution":"open"`) || !strings.Contains(lines[1], `"resolved":-1`) {
		t.Fatalf("open episode exported wrong: %s", lines[1])
	}
}

// failWriter fails every write after the first n bytes succeed.
type failWriter struct {
	ok  int
	err error
}

func (w *failWriter) Write(p []byte) (int, error) {
	if w.ok >= len(p) {
		w.ok -= len(p)
		return len(p), nil
	}
	return 0, w.err
}

// TestWriteJSONSinkError: a writer failing partway through an episode export
// must surface the error instead of silently truncating the forensics.
func TestWriteJSONSinkError(t *testing.T) {
	tr := &EpisodeTracker{}
	observe(tr, 10, 2, chain2())
	resolved(tr, 50, "rescue")
	observe(tr, 60, 2, chain2())
	resolved(tr, 90, "deflection")
	boom := errors.New("disk full")
	if err := tr.WriteJSON(&failWriter{ok: 1, err: boom}); !errors.Is(err, boom) {
		t.Fatalf("WriteJSON error = %v, want %v", err, boom)
	}
}

// TestStreamingSinksSurfaceWriteErrors: the buffered event sinks swallow
// writer errors while streaming (the simulation must not care), but Close
// must report them so a truncated trace cannot pass for a complete one.
func TestStreamingSinksSurfaceWriteErrors(t *testing.T) {
	boom := errors.New("pipe closed")

	js := NewJSONLSink(&failWriter{err: boom})
	js.Event(Event{Cycle: 1, Kind: KindEpisodeOpen, Arg: 7})
	if err := js.Close(); !errors.Is(err, boom) {
		t.Fatalf("JSONL Close error = %v, want %v", err, boom)
	}

	ct := NewChromeTraceSink(&failWriter{err: boom})
	ct.Event(Event{Cycle: 1, Kind: KindEpisodeOpen, Arg: 7})
	ct.Event(Event{Cycle: 9, Kind: KindEpisodeClose, Arg: 7, Aux: 8})
	if err := ct.Close(); !errors.Is(err, boom) {
		t.Fatalf("ChromeTrace Close error = %v, want %v", err, boom)
	}
}
