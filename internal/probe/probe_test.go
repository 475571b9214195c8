// Integration tests for the in-band probe engine against a live network: the
// engine's books must balance no matter what the fabric does, because probes
// ride engine-internal per-channel queues and are pooled — a leaked or
// double-freed probe corrupts the shared message pool. The tests live in an
// external package (network imports probe, so probe's own package cannot see
// a Network).
package probe_test

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/schemes"
)

// congested returns a 2x2 configuration that reaches true knots under
// rate-based load (single-slot queues, single-flit buffers, forwards longer
// than a whole fabric path), so probes launch, chase, and declare for real.
func congested() network.Config {
	cfg := network.DefaultConfig()
	cfg.Radix = []int{2, 2}
	cfg.VCs = 4
	cfg.FlitBuf = 1
	cfg.QueueCap = 1
	cfg.ServiceTime = 2
	cfg.DetectThreshold = 6
	cfg.RouterTimeout = 2000
	cfg.CWGInterval = 0
	cfg.RetryBackoff = 16
	cfg.Lengths = protocol.Lengths{Request: 6, Reply: 3, Backoff: 2}
	cfg.MaxOutstanding = 2
	cfg.Scheme = schemes.PR
	cfg.Pattern = protocol.PAT280
	cfg.Rate = 0.3
	cfg.Detector = network.DetectorProbe
	cfg.Warmup, cfg.Measure, cfg.MaxDrain = 0, 1<<30, 0
	return cfg
}

// ledger asserts the engine's conservation invariant: every probe issued is
// either retired, consumed by a declaration, or still in flight.
func ledger(t *testing.T, n *network.Network, tag string) {
	t.Helper()
	e := n.Probe
	if got := e.Retired + e.Declared + int64(e.InFlight()); e.Issued != got {
		t.Errorf("%s: probe ledger broken: issued %d != retired %d + declared %d + in-flight %d",
			tag, e.Issued, e.Retired, e.Declared, e.InFlight())
	}
	if e.FlitsCharged != e.Issued {
		t.Errorf("%s: flits charged %d != probes issued %d (in-band cost model: one flit per copy)",
			tag, e.FlitsCharged, e.Issued)
	}
}

// TestEngineDeclaresUnderGridlock drives the congested network until probes
// declare: launches happen, declarations dispatch recovery, the detection
// latency statistic accumulates, and the ledger balances throughout.
func TestEngineDeclaresUnderGridlock(t *testing.T) {
	n, err := network.New(congested())
	if err != nil {
		t.Fatal(err)
	}
	if n.Probe == nil {
		t.Fatal("probe detector configured but engine not attached")
	}
	for i := 0; i < 40; i++ {
		n.RunCycles(100)
		ledger(t, n, "mid-run")
	}
	e := n.Probe
	if e.Launched == 0 || e.Issued == 0 {
		t.Fatalf("no probe traffic after 4000 congested cycles (launched=%d issued=%d)", e.Launched, e.Issued)
	}
	if e.Declared == 0 {
		t.Fatalf("no declarations after 4000 congested cycles (launched=%d)", e.Launched)
	}
	if n.Stats.DetectLatencyCount != e.Declared {
		t.Errorf("latency samples %d != declarations %d", n.Stats.DetectLatencyCount, e.Declared)
	}
	if e.AvgDeclareLatency() <= 0 {
		t.Errorf("average declare latency %.2f, want > 0", e.AvgDeclareLatency())
	}
	if n.Stats.Rescues == 0 {
		t.Error("declarations never dispatched a rescue")
	}
	t.Logf("launched=%d issued=%d declared=%d retired=%d dropped=%d latency=%.1f rescues=%d",
		e.Launched, e.Issued, e.Declared, e.Retired, e.Dropped, e.AvgDeclareLatency(), n.Stats.Rescues)
}

// TestEngineDeterministic pins byte-identical engine behaviour across two
// runs at a fixed seed: in-band detection must not perturb reproducibility.
func TestEngineDeterministic(t *testing.T) {
	run := func() [8]int64 {
		n, err := network.New(congested())
		if err != nil {
			t.Fatal(err)
		}
		n.RunCycles(3000)
		e := n.Probe
		return [8]int64{e.Launched, e.Issued, e.Retired, e.Declared, e.Dropped,
			e.FlitsCharged, e.DeclareLatencySum, n.Stats.DeliveredFlits}
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("identical configs diverged:\n  run1 %v\n  run2 %v", a, b)
	}
}

// TestEngineSnapshotRoundTrip snapshots mid-flight probe state, keeps
// running, restores, and reruns: the continuation must be identical, which
// exercises Engine.Checkpoint with live probes queued on channels.
func TestEngineSnapshotRoundTrip(t *testing.T) {
	n, err := network.New(congested())
	if err != nil {
		t.Fatal(err)
	}
	// Step until probes are actually in flight so the snapshot is not
	// trivially empty.
	for i := 0; i < 4000 && n.Probe.InFlight() == 0; i++ {
		n.Step()
	}
	if n.Probe.InFlight() == 0 {
		t.Fatal("never caught probes in flight; congestion config has drifted")
	}
	snap := n.Snapshot()

	after := func() [6]int64 {
		n.RunCycles(200)
		e := n.Probe
		return [6]int64{e.Launched, e.Issued, e.Retired, e.Declared, e.DeclareLatencySum, n.Stats.DeliveredFlits}
	}
	first := after()
	n.Restore(snap)
	second := after()
	if first != second {
		t.Fatalf("restored run diverged:\n  first  %v\n  second %v", first, second)
	}
	ledger(t, n, "post-restore")
}

// TestEngineSurvivesFaults runs the probe engine across fault injections
// that drop worms and freeze routers: probes never occupy flit buffers, so
// faults must not strand or double-free them — the ledger balances and the
// pool's double-put guard stays quiet for the whole run.
func TestEngineSurvivesFaults(t *testing.T) {
	for _, tc := range []struct {
		name string
		ev   fault.Event
	}{
		{"link-down-drop", fault.Event{Kind: fault.LinkDown, At: 300, Until: 900, Router: 1, Dir: 0, Drop: true}},
		{"router-freeze", fault.Event{Kind: fault.RouterFreeze, At: 300, Router: 2, Cycles: 600}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, err := network.New(congested())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fault.Attach(n, &fault.Plan{Events: []fault.Event{tc.ev}}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 30; i++ {
				n.RunCycles(100)
				ledger(t, n, tc.name)
			}
			if n.Probe.Launched == 0 {
				t.Error("no probe launches under fault load")
			}
		})
	}
}
