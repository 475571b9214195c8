// Integration tests for the in-band probe engine against a live network: the
// engine's books must balance no matter what the fabric does, because probes
// ride engine-internal per-channel queues and are pooled — a leaked or
// double-freed probe corrupts the shared message pool. The tests live in an
// external package (network imports probe, so probe's own package cannot see
// a Network).
package probe_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/deadlock"
	"repro/internal/fault"
	"repro/internal/message"
	"repro/internal/network"
	"repro/internal/probe"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/schemes"
	"repro/internal/topology"
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

// TestLaunchWithNoDependents answers "what happens if the dependent set is
// empty": nothing. An origin that is not blocked, and a blocked origin that
// waits on nothing, start no attempt and put no probe on the wire.
func TestLaunchWithNoDependents(t *testing.T) {
	unchanged := func(t *testing.T, e *probe.Engine) {
		t.Helper()
		if e.Launched != 0 || e.Issued != 0 || e.InFlight() != 0 {
			t.Fatalf("launched %d, issued %d, in flight %d; want all 0", e.Launched, e.Issued, e.InFlight())
		}
	}

	t.Run("unblocked", func(t *testing.T) {
		n, err := network.New(congested())
		if err != nil {
			t.Fatal(err)
		}
		l := n.Probe.Layout()
		origin := l.InVertex(0, 0)
		if blocked, _ := l.ClassifyVertex(n, origin, nil); blocked {
			t.Fatal("an idle network's input queue is blocked")
		}
		n.Probe.Launch(origin, 0, 0)
		unchanged(t, n.Probe)
	})

	// Fault-free routing gives every blocked vertex at least one wait edge,
	// so the edge-less origin is an unrouted header seen through a host whose
	// routing offers it no candidate: blocked, and waiting on nothing.
	t.Run("edge-less", func(t *testing.T) {
		n, err := network.New(congested())
		if err != nil {
			t.Fatal(err)
		}
		h := noRoutes{n}
		l := deadlock.LayoutOf(h)
		origin := -1
		for i := 0; i < 4000 && origin < 0; i++ {
			n.Step()
			origin = unroutedHeader(n, l)
		}
		if origin < 0 {
			t.Fatal("no unrouted header in 4000 congested cycles; congestion config has drifted")
		}
		if blocked, edges := l.ClassifyVertex(h, origin, nil); !blocked || len(edges) != 0 {
			t.Fatalf("vertex %d: blocked=%v with %d edges, want blocked with none", origin, blocked, len(edges))
		}
		e := probe.New(h, nil)
		e.Launch(origin, n.Clock.Now(), n.Clock.Now())
		unchanged(t, e)
	})
}

// noRoutes is a network whose routing function offers no candidate.
type noRoutes struct{ *network.Network }

func (noRoutes) RouteCandidates(topology.NodeID, *message.Packet) []routing.PortVC { return nil }

// unroutedHeader returns the vertex of a router-consumed VC whose front is a
// header still waiting for a route, or -1.
func unroutedHeader(n *network.Network, l deadlock.Layout) int {
	for _, ch := range n.Channels {
		if ch.Kind == router.KindEject {
			continue
		}
		for _, vc := range ch.VCs {
			if f, ok := vc.Front(); ok && f.Head() && vc.Route == nil && !f.Pkt.BeingRescued {
				return l.VCVertex(vc)
			}
		}
	}
	return -1
}

// TestNoVertexWaitsOnItself answers "what if the dependent set contains
// itself, or only itself": it never does. Every wait edge joins two distinct
// resources, so no probe is ever sent from a vertex to itself. Checked at
// every cycle on every blocked vertex of the congested run under PR and DR.
func TestNoVertexWaitsOnItself(t *testing.T) {
	for _, scheme := range []schemes.Kind{schemes.PR, schemes.DR} {
		t.Run(fmt.Sprint(scheme), func(t *testing.T) {
			cfg := congested()
			cfg.Scheme = scheme
			n, err := network.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			l := n.Probe.Layout()
			var edges []int
			classified := 0
			for i := 0; i < 3000; i++ {
				n.Step()
				for v := 0; v < l.Total; v++ {
					var blocked bool
					blocked, edges = l.ClassifyVertex(n, v, edges[:0])
					if !blocked {
						continue
					}
					classified++
					if slices.Contains(edges, v) {
						t.Fatalf("cycle %d: vertex %d waits on itself (edges %v)", n.Clock.Now(), v, edges)
					}
				}
			}
			t.Logf("%d blocked classifications, no self-edge", classified)
			if classified < 10000 {
				t.Fatalf("only %d blocked classifications; congestion config has drifted", classified)
			}
		})
	}
}
