package mc

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/schemes"
)

var update = flag.Bool("update", false, "regenerate the golden counterexample corpus")

// goldenCases enumerate the seed corpus: one counterexample per injected
// detector bug per scheme that can exhibit it. Each is produced by a full
// exploration, so regeneration (-update) re-proves the bug is still caught.
var goldenCases = []struct {
	name string
	opts func() Options
}{
	{"forge-dr", func() Options { return forgeCrossing(schemes.DR, false, 10) }},
	{"forge-pr", func() Options { return forgeCrossing(schemes.PR, false, 10) }},
	{"forge-pr-delayed", func() Options { return forgeCrossing(schemes.PR, true, 15) }},
}

// forgeCrossing explores the crossing space with detections forged every
// period cycles, with or without branching on rescue deferral.
func forgeCrossing(kind schemes.Kind, delayRescue bool, period int64) Options {
	opt := spaceOptions("crossing", kind)
	opt.DelayRescue = delayRescue
	opt.Bug, opt.ForgePeriod = BugForgeDetect, period
	return opt
}

// TestGoldenCounterexamples replays every counterexample in the seed corpus
// and checks each still reproduces its recorded violation kind and cycle.
// Run with -update to regenerate the corpus after intentional behavioral
// changes (the test then fails if a bug is no longer caught).
func TestGoldenCounterexamples(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join("testdata", tc.name+".json")
			if *update {
				e, err := New(tc.opts())
				if err != nil {
					t.Fatal(err)
				}
				r := e.Run()
				if r.Counterexample == nil {
					t.Fatalf("bug no longer caught; refusing to write an empty golden")
				}
				b, err := r.Counterexample.Encode()
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to generate)", err)
			}
			cx, err := DecodeCounterexample(data)
			if err != nil {
				t.Fatal(err)
			}
			v, err := Replay(cx)
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if v == nil {
				t.Fatalf("golden schedule no longer violates (recorded %s @%d)",
					cx.Violation.Kind, cx.Violation.Cycle)
			}
			if v.Kind != cx.Violation.Kind || v.Cycle != cx.Violation.Cycle {
				t.Fatalf("replay got %s @%d, recorded %s @%d",
					v.Kind, v.Cycle, cx.Violation.Kind, cx.Violation.Cycle)
			}
		})
	}
}
