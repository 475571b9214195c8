package experiments

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata/*.golden files from the current implementation")

// checkGolden compares got with testdata/name byte for byte, rewriting the
// file first under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if string(got) != string(want) {
		t.Errorf("%s moved:\n got:\n%s\nwant:\n%s", name, got, want)
	}
}

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
	checkGolden(t, "detectors_full.golden", buf.Bytes())
}
