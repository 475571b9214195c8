package simsvc

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/result_payload.golden from the current implementation")

// TestResultPayloadGolden pins one served payload byte for byte: key names,
// key order and number formatting are the wire format clients and the disk
// cache hold, so a change to the summary types must leave this file alone.
// The spec deflects (DR under load on a scarce 2x2) and checks invariants, so
// the recovery counters and invariant_checks are non-zero in the pin.
func TestResultPayloadGolden(t *testing.T) {
	spec, err := RunSpec{
		Scheme: "DR", Pattern: "PAT280", Radix: []int{2, 2}, QueueCap: 2,
		Rate: 0.05, Warmup: -1, Measure: 600, Check: true,
	}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Execute(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "result_payload.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(got, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if string(got)+"\n" != string(want) {
		t.Errorf("served payload moved:\n got %s\nwant %s", got, want)
	}
}
