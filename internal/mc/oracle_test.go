package mc

import (
	"testing"

	"repro/internal/check"
	"repro/internal/message"
	"repro/internal/network"
	"repro/internal/router"
	"repro/internal/schemes"
)

// implantKnot writes a minimal true deadlock into a network that has not
// stepped yet (its routers fold pre-filled buffers and routes in on their
// first Step): two allocated worms on link virtual channels, each routed into
// the other's full buffer. The wait cycle has no escape, so
// the independent CWG rebuild must classify both VCs as knotted. The honest
// dynamics of the tiny spaces never reach a knot (the exhaustion tests prove
// it), so this is how the property-1 classifiers are exercised.
func implantKnot(t *testing.T, n *network.Network) {
	t.Helper()
	var vcs []*router.VC
	for _, ch := range n.Channels {
		if ch.Kind == router.KindLink {
			vcs = append(vcs, ch.VCs[0])
			if len(vcs) == 2 {
				break
			}
		}
	}
	if len(vcs) < 2 {
		t.Fatal("network has fewer than two link channels")
	}
	for i, vc := range vcs {
		msg := &message.Message{
			Txn: message.TxnID(1000 + i), Type: message.M1,
			Src: 0, Dst: 3, Flits: vc.Cap() + 1,
		}
		pkt := &message.Packet{ID: message.PacketID(1000 + i), Msg: msg, SentFlits: vc.Cap()}
		vc.Owner, vc.Route, vc.RoutePort = pkt, vcs[1-i], 0
		for f := 0; f < vc.Cap(); f++ {
			vc.Stage(message.Flit{Pkt: pkt, Idx: f + 1})
		}
		// The wait-edge walk reads the channel's occupancy mask.
		vc.Ch.Commit(0)
	}
}

// TestImplantedKnotIsDeadlock sanity-checks the fixture against the oracle.
func TestImplantedKnotIsDeadlock(t *testing.T) {
	e, err := New(spaceOptions("single", schemes.PR))
	if err != nil {
		t.Fatal(err)
	}
	k := check.RebuildKnots(e.Network())
	if k.Deadlocked() {
		t.Fatal("fresh network reports a knot")
	}
	implantKnot(t, e.Network())
	k = check.RebuildKnots(e.Network())
	if !k.Deadlocked() || k.LockedCount != 2 {
		t.Fatalf("implanted knot not seen: deadlocked=%v locked=%d", k.Deadlocked(), k.LockedCount)
	}
}

// TestAvoidanceViolatedOnKnot checks property 1's strict-avoidance arm: an
// SA run that reaches any true deadlock is a violation the moment the oracle
// sees it.
func TestAvoidanceViolatedOnKnot(t *testing.T) {
	e, err := New(spaceOptions("single", schemes.SA))
	if err != nil {
		t.Fatal(err)
	}
	implantKnot(t, e.Network())
	e.judge = check.Judge{Since: -1}
	v := e.stepOnce(Choice{})
	if v == nil || v.Kind != "avoidance-violated" {
		t.Fatalf("got %+v, want avoidance-violated", v)
	}
}

// TestMissedDeadlockAfterBound checks property 1's recovery-scheme arm: a
// knot that outlives check.MissedBound with no detection reaching the scheme
// is a missed deadlock.
func TestMissedDeadlockAfterBound(t *testing.T) {
	opt := spaceOptions("single", schemes.PR)
	e, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	implantKnot(t, e.Network())
	bound := check.MissedBound(opt.Net)
	for e.Network().Clock.Now() <= bound {
		e.Network().Clock.Tick()
	}
	e.judge = check.Judge{Since: 0}
	v := e.stepOnce(Choice{})
	if v == nil || v.Kind != "missed-deadlock" {
		t.Fatalf("got %+v, want missed-deadlock", v)
	}

	// A detection that did reach the scheme clears the deadline; the knot
	// then classifies as unrecovered when the budget runs out, not missed.
	e.judge = check.Judge{Since: 0, Dispatched: true}
	if v := e.stuck(); v.Kind != "unrecovered-deadlock" {
		t.Fatalf("got %+v, want unrecovered-deadlock", v)
	}
	e.judge = check.Judge{Since: 0}
	if v := e.stuck(); v.Kind != "missed-deadlock" {
		t.Fatalf("got %+v, want missed-deadlock", v)
	}
}

// TestNoProgressClassification checks the budget-exhaustion fallback on a
// knot-free network.
func TestNoProgressClassification(t *testing.T) {
	e, err := New(spaceOptions("single", schemes.PR))
	if err != nil {
		t.Fatal(err)
	}
	e.judge = check.Judge{Since: -1}
	if v := e.stuck(); v.Kind != "no-progress" {
		t.Fatalf("got %+v, want no-progress", v)
	}
}
