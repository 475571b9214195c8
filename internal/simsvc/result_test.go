package simsvc

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/tracegen"
)

var update = flag.Bool("update", false, "rewrite the testdata/*.golden files from the current implementation")

// checkPayloadGolden runs a spec through Execute and compares the payload
// with testdata/name byte for byte, rewriting the file first under -update.
func checkPayloadGolden(t *testing.T, name string, spec RunSpec) {
	t.Helper()
	spec, err := spec.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Execute(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", name)
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

// TestResultPayloadGolden pins one served payload byte for byte: key names,
// key order and number formatting are the wire format clients and the disk
// cache hold, so a change to the summary types must leave this file alone.
// The spec deflects (DR under load on a scarce 2x2) and checks invariants, so
// the recovery counters and invariant_checks are non-zero in the pin.
func TestResultPayloadGolden(t *testing.T) {
	checkPayloadGolden(t, "result_payload.golden", RunSpec{
		Scheme: "DR", Pattern: "PAT280", Radix: []int{2, 2}, QueueCap: 2,
		Rate: 0.05, Warmup: -1, Measure: 600, Check: true,
	})
}

// TestTracePayloadGolden pins the served payload of a trace-driven run for
// each application: the generator's seed and length, the MSI pattern and the
// Section 4.2.1 detector settings all show in the digest and the counters.
func TestTracePayloadGolden(t *testing.T) {
	for _, app := range tracegen.Apps {
		t.Run(app.Name, func(t *testing.T) {
			checkPayloadGolden(t, "trace_"+app.Name+".golden", RunSpec{TraceApp: app.Name, Measure: 15000})
		})
	}
}
