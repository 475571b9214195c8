package mc

import (
	"bytes"
	"testing"

	"repro/internal/network"
	"repro/internal/schemes"
)

// gridlockOptions wires the true-deadlock space with the tight
// nondeterminism it requires (see GridlockConfig: wider schedules livelock
// PR's rescue with any detector, burying the property under test).
func gridlockOptions(kind schemes.Kind) Options {
	return Options{
		Net:          GridlockConfig(kind),
		Txns:         EntangledTxns(),
		InjectWindow: 1,
		Rotations:    1,
		MaxCycles:    1500,
	}
}

// TestExhaustCrossingProbe exhausts the crossing space with the probe
// detector active for every recovery scheme: the in-band engine idles (no
// detection fires here), every path still quiesces, and strict
// no-false-detection holds — probe-mode detections are declarations, which
// never happen without blocking.
func TestExhaustCrossingProbe(t *testing.T) {
	for _, kind := range []schemes.Kind{schemes.DR, schemes.PR} {
		cfg := TinyConfig(kind)
		cfg.Detector = network.DetectorProbe
		e, err := New(Options{
			Net: cfg, Txns: CrossingTxns(cfg),
			StrictDetect: true,
			DelayRescue:  true,
		})
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
		t.Logf("%v: %d states, %d transitions, %d accepting paths", kind, r.States, r.Transitions, r.Accepts)
	}
}

// TestGridlockReachesTrueDeadlock proves the gridlock space does what it is
// for: with every detection suppressed, a true knot forms and outlives the
// detection deadline, classifying as missed-deadlock. This is the
// precondition for the probe-suppression experiment below to mean anything —
// in this space, detector-driven recovery is load-bearing.
func TestGridlockReachesTrueDeadlock(t *testing.T) {
	opt := gridlockOptions(schemes.PR)
	opt.Bug = BugSuppressDetect
	e, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	r := e.Run()
	if r.Counterexample == nil {
		t.Fatal("suppressed detector never missed a deadlock; the gridlock space no longer reaches a true knot")
	}
	if r.Counterexample.Violation.Kind != "missed-deadlock" {
		t.Fatalf("wrong violation kind %q", r.Counterexample.Violation.Kind)
	}
}

// TestProbeRecoversGridlock runs the true-deadlock space with the in-band
// probe detector as the only recovery trigger (router timeout is beyond the
// cycle budget): probes launch at blocked endpoints, chase the wait cycle,
// return to their origin, declare, and the declaration dispatches the rescue
// that unjams every path. Exhaustion with zero violations is the
// detection-latency and recovery-termination proof in one.
func TestProbeRecoversGridlock(t *testing.T) {
	for _, det := range []string{network.DetectorThreshold, network.DetectorProbe} {
		opt := gridlockOptions(schemes.PR)
		opt.Net.Detector = det
		e, err := New(opt)
		if err != nil {
			t.Fatalf("%s: %v", det, err)
		}
		r := e.Run()
		if !r.Complete {
			t.Fatalf("%s: exploration hit a budget (states=%d)", det, r.States)
		}
		if r.Counterexample != nil {
			t.Fatalf("%s: violation %s: %s", det,
				r.Counterexample.Violation.Kind, r.Counterexample.Violation.Detail)
		}
		if r.Accepts == 0 || r.Detections == 0 {
			t.Fatalf("%s: degenerate exploration (accepts=%d detections=%d)", det, r.Accepts, r.Detections)
		}
		t.Logf("%s: %d states, %d detections, %d accepting paths", det, r.States, r.Detections, r.Accepts)
	}
}

// TestSuppressProbeCaught swallows every probe declaration in the gridlock
// space: the knot forms, nothing reaches the scheme, and the missed-deadlock
// property produces a counterexample that is deterministic (two independent
// explorations encode byte-identically), survives a JSON round trip, and
// replays to the same violation.
func TestSuppressProbeCaught(t *testing.T) {
	opt := gridlockOptions(schemes.PR)
	opt.Net.Detector = network.DetectorProbe
	opt.Bug = BugSuppressProbe
	e, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	r := e.Run()
	if r.Counterexample == nil {
		t.Fatalf("suppressed probe declarations not caught (states=%d, detections=%d)", r.States, r.Detections)
	}
	cx := r.Counterexample
	if cx.Violation.Kind != "missed-deadlock" {
		t.Fatalf("wrong violation kind %q", cx.Violation.Kind)
	}
	if r.Detections != 0 {
		t.Fatalf("suppress-probe leaked %d declarations to the scheme", r.Detections)
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
		t.Error("counterexample differs between explorations")
	}

	decoded, err := DecodeCounterexample(b1)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Net.Detector != network.DetectorProbe {
		t.Fatalf("detector %q lost in the JSON round trip", decoded.Net.Detector)
	}
	v, err := Replay(decoded)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if v == nil || v.Kind != cx.Violation.Kind || v.Cycle != cx.Violation.Cycle {
		t.Fatalf("replay got %+v, want %+v", v, cx.Violation)
	}
}

// TestForgeProbeCaught injects declarations from an unblocked origin on the
// congestion-free crossing space: strict no-false-detection catches the
// first one, and the counterexample replays.
func TestForgeProbeCaught(t *testing.T) {
	for _, kind := range []schemes.Kind{schemes.DR, schemes.PR} {
		cfg := TinyConfig(kind)
		cfg.Detector = network.DetectorProbe
		opt := Options{
			Net: cfg, Txns: CrossingTxns(cfg),
			StrictDetect: true,
			Bug:          BugForgeProbe,
			ForgePeriod:  10,
		}
		e, err := New(opt)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		r := e.Run()
		if r.Counterexample == nil {
			t.Fatalf("%v: forged probe declarations not caught (states=%d)", kind, r.States)
		}
		cx := r.Counterexample
		if cx.Violation.Kind != "false-detection" {
			t.Fatalf("%v: wrong violation kind %q", kind, cx.Violation.Kind)
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
