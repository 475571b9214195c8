package experiments

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/detectors_full.golden from the current implementation")

// TestDetectorsGolden pins the detector table at full scale byte for byte:
// every cell runs at seed 41, so a change to a trigger, to recovery or to the
// false-positive count moves a line here. Regenerate with -update and say why.
func TestDetectorsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale detector sweep")
	}
	var buf bytes.Buffer
	if err := Detectors(context.Background(), &buf, Full); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "detectors_full.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if got := buf.String(); got != string(want) {
		t.Errorf("detector table moved:\n got:\n%s\nwant:\n%s", got, want)
	}
}
