package mc

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/network"
	"repro/internal/schemes"
)

// mcSchemes are the schemes the model checker targets (Section 4's three
// deadlock-handling families: avoidance, deflective recovery, progressive
// recovery).
var mcSchemes = []schemes.Kind{schemes.SA, schemes.DR, schemes.PR}

// spaceOptions returns the options that explore the named Spaces row for
// kind.
func spaceOptions(name string, kind schemes.Kind) Options {
	space, err := SpaceNamed(name)
	if err != nil {
		panic(err)
	}
	return space.Options(kind)
}

// TestExhaustSingleTxn proves the one-transaction tiny space for every
// scheme: the exploration terminates by exhaustion (not budget), every path
// quiesces with the transaction delivered, and no property fires — including
// strict no-false-detection.
func TestExhaustSingleTxn(t *testing.T) {
	for _, kind := range mcSchemes {
		e, err := New(spaceOptions("single", kind))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		r := e.Run()
		if !r.Complete {
			t.Fatalf("%v: exploration hit a budget (states=%d)", kind, r.States)
		}
		if r.Counterexample != nil {
			t.Fatalf("%v: violation %s: %s", kind,
				r.Counterexample.Violation.Kind, r.Counterexample.Violation.Detail)
		}
		if r.Accepts == 0 || r.States == 0 {
			t.Fatalf("%v: degenerate exploration: %+v", kind, r)
		}
		t.Logf("%v: %d states, %d transitions, %d accepting paths, depth %d",
			kind, r.States, r.Transitions, r.Accepts, r.MaxDepth)
	}
}

// TestExhaustCrossing exhausts the two-transaction crossing space: opposed
// corner-to-corner transactions whose worms contend in the fabric. Branching
// covers injection timing, arbitration rotation and recovery deferral.
func TestExhaustCrossing(t *testing.T) {
	for _, kind := range mcSchemes {
		e, err := New(spaceOptions("crossing", kind))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		r := e.Run()
		if !r.Complete {
			t.Fatalf("%v: exploration hit a budget (states=%d)", kind, r.States)
		}
		if r.Counterexample != nil {
			t.Fatalf("%v: violation %s: %s", kind,
				r.Counterexample.Violation.Kind, r.Counterexample.Violation.Detail)
		}
		if r.Accepts == 0 {
			t.Fatalf("%v: no accepting path", kind)
		}
		t.Logf("%v: %d states, %d transitions, %d accepting paths, depth %d",
			kind, r.States, r.Transitions, r.Accepts, r.MaxDepth)
	}
}

// entangledOptions explores the detection-exercising space with a release
// window of 2 instead of its row's 4, which keeps the detection tests fast.
func entangledOptions(kind schemes.Kind) Options {
	opt := spaceOptions("entangled", kind)
	opt.InjectWindow = 2
	return opt
}

// TestDetectionFiresUnderContention checks the entangled space is hard
// enough that endpoint detection reaches the scheme on some path — the
// prerequisite for the suppress-detect experiment below to mean anything —
// and that every such path still quiesces (recovery terminates).
func TestDetectionFiresUnderContention(t *testing.T) {
	e, err := New(entangledOptions(schemes.DR))
	if err != nil {
		t.Fatal(err)
	}
	r := e.Run()
	if !r.Complete || r.Counterexample != nil {
		t.Fatalf("entangled DR space not clean: complete=%v cx=%+v", r.Complete, r.Counterexample)
	}
	if r.Detections == 0 {
		t.Fatal("entangled space never triggered endpoint detection; it no longer exercises the detectors")
	}
	t.Logf("DR entangled: %d states, %d detections, %d accepts", r.States, r.Detections, r.Accepts)
}

// TestSuppressDetectSilencesScheme runs the same entangled space with every
// endpoint detection swallowed before it reaches the scheme. The space stays
// deadlock-free (the exhaustion tests prove no true knot is reachable here,
// so detection is not load-bearing for progress), but the detection count
// must drop to zero — the bug is observable, and any reachable true deadlock
// would now classify as missed-deadlock.
func TestSuppressDetectSilencesScheme(t *testing.T) {
	opt := entangledOptions(schemes.DR)
	opt.Bug = BugSuppressDetect
	e, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	r := e.Run()
	if !r.Complete {
		t.Fatalf("suppressed exploration hit a budget (states=%d)", r.States)
	}
	if r.Detections != 0 {
		t.Fatalf("suppress-detect leaked %d detections to the scheme", r.Detections)
	}
	if r.Counterexample != nil {
		t.Fatalf("unexpected violation: %+v", r.Counterexample.Violation)
	}
}

// TestForgeDetectCaught injects a detector that fires on congestion-free
// states and checks the strict no-false-detection property catches it, that
// the counterexample is deterministic (two independent explorations produce
// byte-identical JSON), and that replaying the schedule reproduces the
// violation at the same cycle.
func TestForgeDetectCaught(t *testing.T) {
	for _, kind := range []schemes.Kind{schemes.DR, schemes.PR} {
		opt := spaceOptions("crossing", kind)
		opt.Bug = BugForgeDetect
		e, err := New(opt)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		r := e.Run()
		if r.Counterexample == nil {
			t.Fatalf("%v: forged detections not caught (states=%d, detections=%d)",
				kind, r.States, r.Detections)
		}
		cx := r.Counterexample
		if cx.Violation.Kind != "false-detection" {
			t.Fatalf("%v: wrong violation kind %q", kind, cx.Violation.Kind)
		}

		e2, err := New(opt)
		if err != nil {
			t.Fatal(err)
		}
		r2 := e2.Run()
		b1, err := cx.Encode()
		if err != nil {
			t.Fatal(err)
		}
		b2, err := r2.Counterexample.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Errorf("%v: counterexample differs between explorations", kind)
		}

		v, err := Replay(cx)
		if err != nil {
			t.Fatalf("%v: replay: %v", kind, err)
		}
		if v == nil || v.Kind != cx.Violation.Kind || v.Cycle != cx.Violation.Cycle {
			t.Fatalf("%v: replay got %+v, want %+v", kind, v, cx.Violation)
		}
	}
}

// TestCounterexampleRoundTrip pushes a counterexample through JSON and back
// and checks the decoded copy still replays.
func TestCounterexampleRoundTrip(t *testing.T) {
	e, err := New(goldenCases[1].opts())
	if err != nil {
		t.Fatal(err)
	}
	r := e.Run()
	if r.Counterexample == nil {
		t.Fatal("no counterexample to round-trip")
	}
	b, err := r.Counterexample.Encode()
	if err != nil {
		t.Fatal(err)
	}
	cx, err := DecodeCounterexample(b)
	if err != nil {
		t.Fatal(err)
	}
	v, err := Replay(cx)
	if err != nil {
		t.Fatal(err)
	}
	if v == nil || v.Kind != cx.Violation.Kind {
		t.Fatalf("decoded replay got %+v, want %+v", v, cx.Violation)
	}

	if _, err := DecodeCounterexample([]byte(`{"version":99}`)); err == nil {
		t.Fatal("unknown version accepted")
	}
	if _, err := DecodeCounterexample([]byte(`{`)); err == nil {
		t.Fatal("malformed JSON accepted")
	}

	// The committed corpus predates network.Config carrying its own text
	// form: each file must decode and re-encode to the same bytes.
	for _, tc := range goldenCases {
		want, err := os.ReadFile(filepath.Join("testdata", tc.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		cx, err := DecodeCounterexample(want)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got, err := cx.Encode(); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s does not re-encode byte-identically (err %v):\n%s", tc.name, err, got)
		}
	}

	// A field of Config is a field of the file: the token watchdog, which the
	// hand-copied mirror had forgotten, survives the trip.
	cx.Net.TokenRegenTimeout = 77
	if b, err = cx.Encode(); err != nil {
		t.Fatal(err)
	}
	if back, err := DecodeCounterexample(b); err != nil || back.Net.TokenRegenTimeout != 77 {
		t.Fatalf("TokenRegenTimeout did not round-trip: %v, %+v", err, back)
	}

	// A file whose network the explorer could not build is refused at decode,
	// naming the field.
	for field, mutate := range map[string]func(*network.Config){
		"CWGInterval":       func(c *network.Config) { c.CWGInterval = -5 },
		"MaxOutstanding":    func(c *network.Config) { c.MaxOutstanding = -4 },
		"QueueMode":         func(c *network.Config) { c.QueueMode = 7 },
		"TokenRegenTimeout": func(c *network.Config) { c.TokenRegenTimeout = -1 },
		"RetryBackoff":      func(c *network.Config) { c.RetryBackoff = -1 },
		"Pattern":           func(c *network.Config) { c.Pattern = nil },
	} {
		bad := *cx
		mutate(&bad.Net)
		b, err := json.Marshal(bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeCounterexample(b); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("%s: decode error %v does not name the field", field, err)
		}
	}
}

// TestReplayRejectsForeignSchedule checks the replay loop fails loudly when
// a schedule does not belong to the configuration: a branch choice that was
// never available must error, not silently desynchronize.
func TestReplayRejectsForeignSchedule(t *testing.T) {
	e, err := New(spaceOptions("crossing", schemes.PR))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ReplaySchedule([]Choice{{Cycle: 0, Rot: 99}}); err == nil {
		t.Fatal("foreign schedule entry accepted")
	}
}

// TestOptionValidation exercises New's admission check: each case is refused,
// and a refused bug is named as Bug.
func TestOptionValidation(t *testing.T) {
	cfg := tinyConfig(schemes.PR)
	txns := crossingTxns(cfg)
	probe := cfg
	probe.Detector = network.DetectorProbe
	for i, tc := range []struct {
		opt  Options
		want string
	}{
		{Options{Net: cfg}, "transactions"},
		{Options{Net: cfg, Txns: []TxnSpec{{Template: 7, Requester: 0, Home: 3, Thirds: []int{1}}}}, "template"},
		{Options{Net: cfg, Txns: []TxnSpec{{Template: 0, Requester: 0, Home: 0, Thirds: []int{1}}}}, "requester == home"},
		{Options{Net: cfg, Txns: []TxnSpec{{Template: 0, Requester: 0, Home: 9, Thirds: []int{1}}}}, "endpoints"},
		{Options{Net: cfg, Txns: []TxnSpec{{Template: 0, Requester: 0, Home: 3, Thirds: []int{3}}}}, "third party"},
		{Options{Net: cfg, Txns: []TxnSpec{{Template: 0, Requester: 0, Home: 3}}}, "thirds"},
		// A bug New does not know, or a probe bug without the probe
		// detector, used to explore the honest code without a word.
		{Options{Net: probe, Txns: txns, Bug: "forge-detct"}, `Bug "forge-detct"`},
		{Options{Net: cfg, Txns: txns, Bug: BugSuppressProbe}, `Bug "suppress-probe"`},
		{Options{Net: cfg, Txns: txns, Bug: BugForgeProbe}, `Bug "forge-probe"`},
	} {
		if _, err := New(tc.opt); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d: error %v, want one naming %q", i, err, tc.want)
		}
	}
}
