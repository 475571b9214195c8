package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/schemes"
	"repro/internal/topology"
)

// prNet builds a small PR network prone to message-dependent deadlock: tiny
// queues, few VCs, long chains, high load.
func prNet(t *testing.T, rate float64, queueCap int, seed uint64) *network.Network {
	t.Helper()
	cfg := network.DefaultConfig()
	cfg.Radix = []int{4, 4}
	cfg.Scheme = schemes.PR
	cfg.Pattern = protocol.PAT271
	cfg.VCs = 2
	cfg.QueueCap = queueCap
	cfg.Rate = rate
	cfg.Seed = seed
	cfg.Warmup = 0
	cfg.Measure = 12000
	cfg.MaxDrain = 30000
	cfg.CWGInterval = 50
	n, err := network.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestRescueFiresUnderPressure(t *testing.T) {
	n := prNet(t, 0.02, 4, 3)
	n.Run()
	if n.Stats.Rescues == 0 {
		t.Fatal("no rescues under heavy pressure with tiny queues")
	}
	if n.Rescue.Completed == 0 {
		t.Fatal("rescues started but none completed")
	}
}

func TestRescuedSystemDrainsCompletely(t *testing.T) {
	// The progressive property: after generation stops, every transaction
	// completes — nothing was killed or lost by recovery.
	n := prNet(t, 0.02, 4, 7)
	n.Run()
	if !n.Quiescent() {
		t.Fatalf("system did not drain: %d transactions stuck", n.Table.Len())
	}
	if n.Rescue.Active() {
		t.Fatal("rescue still holds the token after drain")
	}
}

// laneEvents records the token's capture and release trace events.
type laneEvents []obs.Event

func (l *laneEvents) Event(e obs.Event) {
	if e.Kind == obs.KindTokenCapture || e.Kind == obs.KindTokenRelease {
		*l = append(*l, e)
	}
}

func TestTokenCaptureReleaseBalanced(t *testing.T) {
	n := prNet(t, 0.02, 4, 11)
	var ev laneEvents
	n.AttachObs(obs.NewBus(&ev))
	n.Run()
	var captures, releases int64
	for _, e := range ev {
		if e.Kind == obs.KindTokenCapture {
			captures++
		} else {
			releases++
		}
	}
	if captures != releases || releases != n.Rescue.Completed {
		t.Fatalf("%d captures, %d releases, %d completed rescues", captures, releases, n.Rescue.Completed)
	}
}

func TestRescueExclusivity(t *testing.T) {
	// At most one rescue may hold the token at any time: captures and
	// releases alternate, each release at the router of its capture, and
	// the token does not move while held.
	n := prNet(t, 0.02, 4, 13)
	var ev laneEvents
	n.AttachObs(obs.NewBus(&ev))
	moved := 0
	n.OnCycle = func(now int64) {
		if n.Rescue.Active() && len(ev) > 0 && n.Rescue.Pos() != topology.NodeID(ev[len(ev)-1].Node) {
			moved++
		}
	}
	n.Run()
	for i, e := range ev {
		want := obs.KindTokenCapture
		if i%2 == 1 {
			want = obs.KindTokenRelease
			if e.Node != ev[i-1].Node {
				t.Fatalf("event %d: released at router %d, captured at %d", i, e.Node, ev[i-1].Node)
			}
		}
		if e.Kind != want {
			t.Fatalf("event %d is a %s, want a %s", i, e.Kind, want)
		}
	}
	if len(ev) == 0 || moved > 0 {
		t.Fatalf("%d lane events; the held token moved on %d cycles", len(ev), moved)
	}
}

func TestRescuedMessagesCounted(t *testing.T) {
	n := prNet(t, 0.02, 4, 17)
	n.Run()
	if n.Stats.Rescues > 0 && n.Stats.RescuedDelivered == 0 {
		t.Fatal("rescues happened but no rescued message was delivered")
	}
}

func TestPhaseStringsAndAccessors(t *testing.T) {
	for p, want := range map[core.Phase]string{
		core.PhaseCirculating: "circulating", core.PhaseLost: "lost", core.PhaseWaitService: "wait-service",
		core.PhaseTransfer: "transfer", core.PhaseReturn: "return",
	} {
		if p.String() != want {
			t.Errorf("phase %d string %q", p, p.String())
		}
	}
	n := prNet(t, 0, 4, 1)
	if n.Rescue.CurrentPhase() != core.PhaseCirculating || n.Rescue.Active() || n.Rescue.Depth() != 0 {
		t.Fatal("fresh rescue engine not circulating")
	}
	if n.Rescue.String() == "" {
		t.Fatal("empty stringer")
	}
}

func TestIncompleteConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("incomplete config did not panic")
		}
	}()
	core.New(core.Config{})
}

// TestDeadlockActuallyResolved drives the system into CWG-visible knots and
// verifies they do not persist: after the run the CWG must be knot-free once
// drained.
func TestDeadlockActuallyResolved(t *testing.T) {
	n := prNet(t, 0.025, 2, 23)
	n.Run()
	if !n.Quiescent() {
		t.Fatalf("not quiescent: %d txns", n.Table.Len())
	}
	locked, fresh := n.Detector.ScanAt(-1)
	if locked != 0 || fresh != 0 {
		t.Fatalf("knots remain after drain: %d resources", locked)
	}
}
