package experiments

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/check"
	"repro/internal/network"
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

// TestFalsePosIsNoKnotDispatch pins one definition of a false positive: on
// the PAT280 cell under each detector, the table's FalsePos is the invariant
// checker's NoKnotDispatches, both decided by check.JudgeDispatch at the same
// dispatches. The run is the smoke scale with 20,000 measured cycles, the
// shortest at which the probe cell declares at all.
func TestFalsePosIsNoKnotDispatch(t *testing.T) {
	s := Smoke
	s.Measure = 20000
	for _, c := range detectorCells {
		if c.pat.Name != "PAT280" {
			continue
		}
		var chk *check.Checker
		NetworkHook = func(n *network.Network) { chk = check.Attach(n, check.Options{}) }
		p, err := runDetectorPoint(context.Background(), c.config(s))
		NetworkHook = nil
		if err != nil {
			t.Fatal(err)
		}
		if err := chk.Err(); err != nil {
			t.Fatalf("%s: %v", c.detector, err)
		}
		if p.FalsePos == 0 || p.FalsePos == p.DetectCount {
			t.Fatalf("%s: %d of %d dispatches with no knot; the cell does not tell the two apart", c.detector, p.FalsePos, p.DetectCount)
		}
		if p.FalsePos != chk.NoKnotDispatches {
			t.Errorf("%s: table false positives %d, checker no-knot dispatches %d", c.detector, p.FalsePos, chk.NoKnotDispatches)
		}
		t.Logf("%s: %d dispatches, %d with no knot", c.detector, p.DetectCount, p.FalsePos)
	}
}
