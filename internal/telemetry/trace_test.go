package telemetry

import (
	"regexp"
	"testing"
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
