package obs

import (
	"bytes"
	"strings"
	"testing"
)

// TestSamplerExactBoundary: rows land exactly on window-boundary cycles,
// counts split by the cycle the event was counted in (not its timestamp),
// and Close emits the pending partial window.
func TestSamplerExactBoundary(t *testing.T) {
	var buf bytes.Buffer
	s := NewSampler(&buf, 5, 1, nil)
	for now := int64(0); now < 13; now++ {
		s.Event(Event{Cycle: now, Kind: KindInject, Arg: 1})
		s.Tick(now)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// Header, full windows ending at 4 and 9, and the partial [10,12]
	// emitted by Close.
	if len(lines) != 4 {
		t.Fatalf("%d lines, want 4:\n%s", len(lines), buf.String())
	}
	for i, want := range []struct{ cycle, injected string }{
		{"4", "5"}, {"9", "5"}, {"12", "3"},
	} {
		row := strings.Split(lines[i+1], ",")
		if row[0] != want.cycle || row[1] != want.injected {
			t.Errorf("row %d = cycle %s injected %s, want %s/%s",
				i+1, row[0], row[1], want.cycle, want.injected)
		}
	}
}

// TestSamplerCloseAfterExactWindow: when the run ends exactly on a window
// boundary there is no pending partial window and Close adds nothing.
func TestSamplerCloseAfterExactWindow(t *testing.T) {
	var buf bytes.Buffer
	s := NewSampler(&buf, 5, 1, nil)
	for now := int64(0); now < 10; now++ {
		s.Tick(now)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 { // header + rows at 4 and 9, nothing extra
		t.Fatalf("%d lines, want 3:\n%s", len(lines), buf.String())
	}
}

// TestSamplerCloseWithoutTicks: a sampler that never ticked emits nothing.
func TestSamplerCloseWithoutTicks(t *testing.T) {
	var buf bytes.Buffer
	s := NewSampler(&buf, 5, 1, nil)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("untouched sampler wrote %q", buf.String())
	}
}
