package check_test

import (
	"testing"

	"repro/internal/check"
	"repro/internal/message"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/schemes"
	"repro/internal/topology"
)

// implantKnot writes a true deadlock into a network that has not stepped:
// every VC of a link and of its reverse link holds the header of a worm of a
// registered transaction bound for the router the link came from, so each
// header waits on every VC of the other link, all owned. The wait graph has
// no escape, and every sweep invariant still holds.
func implantKnot(t *testing.T, n *network.Network) {
	t.Helper()
	var there, back *router.Channel
	for _, ch := range n.Channels {
		for _, rev := range n.Channels {
			if ch.Kind == router.KindLink && rev.Kind == router.KindLink &&
				rev.Src == ch.Dst && rev.Dst == ch.Src {
				there, back = ch, rev
				break
			}
		}
		if there != nil {
			break
		}
	}
	if there == nil {
		t.Fatal("network has no pair of opposite links")
	}
	tmpl := n.Engine.PickTemplate(0)
	_, width := tmpl.FanoutIndex()
	thirds := make([]int, width)
	for i := range thirds {
		thirds[i] = 2
	}
	id := message.PacketID(1000)
	for _, ch := range []*router.Channel{there, back} {
		dst := n.Torus.EndpointID(topology.Endpoint{Router: ch.Src})
		for _, vc := range ch.VCs {
			txn := n.Engine.NewTransaction(tmpl, 0, 1, thirds, 0)
			n.Table.Add(txn)
			m := n.Pool.NewMessage(txn.ID, message.M1, 0, 0, dst, 4, 0)
			id++
			vc.Owner = &message.Packet{ID: id, Msg: m, SentFlits: 1}
			vc.Stage(message.Flit{Pkt: vc.Owner, Idx: 0})
		}
		ch.Commit(0)
	}
	if k := check.RebuildKnots(n); k.LockedCount != 2*len(there.VCs) {
		t.Fatalf("implanted knot not seen: %d knotted resources, want %d", k.LockedCount, 2*len(there.VCs))
	}
}

// knotRun implants a knot in an idle network of cfg, attaches the checker,
// and drives its cycle boundaries by hand until the knot is twice
// MissedBound old, so no trigger fires unless the test forges one: forge,
// when set, is called once, on the first sweep after the knot was seen, at
// NI 0's empty input queue 0.
func knotRun(t *testing.T, cfg network.Config, forge func(n *network.Network, now int64)) *check.Checker {
	t.Helper()
	const interval = 16
	cfg.CWGInterval = 0 // no scan whose published flags the implant would contradict
	n := mustNet(t, cfg)
	implantKnot(t, n)
	c := check.Attach(n, check.Options{Interval: interval})
	bound := check.MissedBound(cfg)
	for n.Clock.Now() < 2*bound {
		n.Clock.Tick()
		now := n.Clock.Now()
		n.OnCycle(now)
		if forge != nil && now == interval {
			forge(n, now)
		}
	}
	return c
}

// prKnotCfg is the recovery network knotRun implants its knot in, under the
// given detector.
func prKnotCfg(detector string) network.Config {
	cfg := smallCfg(schemes.PR, protocol.PAT271, 4, 0)
	cfg.Detector = detector
	return cfg
}

// forgeDispatch dispatches recovery at NI 0's input queue 0 the way the
// configured trigger does: an endpoint firing under threshold, a probe
// declaration under probe.
func forgeDispatch(n *network.Network, now int64) {
	if n.Probe != nil {
		n.Probe.OnDeclare(n.Probe.Layout().InVertex(0, 0), now)
		return
	}
	ni := n.NIs[0]
	ni.Cfg.Hooks.Detect(ni, 0, now)
}

// TestMissedDeadlockEitherTrigger: a knot no dispatch follows is a missed
// deadlock once it outlives MissedBound, under the threshold detector as
// under the probe, and one dispatch after the knot formed meets the
// deadline.
func TestMissedDeadlockEitherTrigger(t *testing.T) {
	for _, det := range []string{network.DetectorThreshold, network.DetectorProbe} {
		t.Run(det, func(t *testing.T) {
			silent := knotRun(t, prKnotCfg(det), nil).Violations()
			if !hasRule(silent, "missed-deadlock") {
				t.Fatalf("undispatched knot not reported; rules %v", rules(silent))
			}
			if got := rules(silent); len(got) != 1 {
				t.Fatalf("rules %v, want missed-deadlock alone (re-armed, not repeated)", got)
			}
			dispatched := knotRun(t, prKnotCfg(det), forgeDispatch).Violations()
			if hasRule(dispatched, "missed-deadlock") {
				t.Fatalf("knot reported missed although recovery was dispatched; rules %v", rules(dispatched))
			}
		})
	}
}

// TestUnblockedDispatchCaught: recovery dispatched at an empty input queue is
// unsound under either trigger, and is not also counted as a no-knot
// dispatch.
func TestUnblockedDispatchCaught(t *testing.T) {
	for _, det := range []string{network.DetectorThreshold, network.DetectorProbe} {
		t.Run(det, func(t *testing.T) {
			cfg := smallCfg(schemes.PR, protocol.PAT271, 4, 0)
			cfg.Detector = det
			n := mustNet(t, cfg)
			c := check.Attach(n, check.Options{})
			forgeDispatch(n, 1)
			if vs := c.Violations(); len(vs) != 1 || vs[0].Rule != "unblocked-dispatch" {
				t.Fatalf("rules %v, want unblocked-dispatch", rules(vs))
			}
			if c.NoKnotDispatches != 0 {
				t.Fatalf("unsound dispatch also counted as no-knot (%d)", c.NoKnotDispatches)
			}
		})
	}
}

// TestAvoidanceKnotJudgedOnce: under strict avoidance any knot is a
// violation the moment a sweep sees it, reported once however long it lives,
// never as a missed deadlock, and a dispatch credited to it excuses nothing.
func TestAvoidanceKnotJudgedOnce(t *testing.T) {
	cfg := smallCfg(schemes.SA, protocol.PAT271, 8, 0)
	for _, tc := range []struct {
		name  string
		forge func(*network.Network, int64)
	}{{"silent", nil}, {"dispatched", forgeDispatch}} {
		t.Run(tc.name, func(t *testing.T) {
			vs := knotRun(t, cfg, tc.forge).Violations()
			avoided := 0
			for _, v := range vs {
				if v.Rule == "avoidance-violated" {
					avoided++
				}
			}
			if avoided != 1 || hasRule(vs, "missed-deadlock") {
				t.Fatalf("rules %v, want avoidance-violated once and no missed-deadlock", rules(vs))
			}
			if tc.forge != nil && !hasRule(vs, "unblocked-dispatch") {
				t.Fatalf("rules %v: the forged dispatch was not judged", rules(vs))
			}
		})
	}
}

// TestStuckVerdicts: a run that ended without quiescing is judged by what
// the rebuild still sees: no knot is no progress, a knot no dispatch was
// credited to is missed, and one a dispatch was credited to is unrecovered.
func TestStuckVerdicts(t *testing.T) {
	n := mustNet(t, prKnotCfg(network.DetectorThreshold))
	j := check.Judge{Since: -1}
	if v := j.Stuck(n); v.Rule != "no-progress" {
		t.Fatalf("knot-free network: %+v, want no-progress", v)
	}
	implantKnot(t, n)
	if k, v := j.Boundary(n, 0); !k.Deadlocked() || v != nil || j.Since != 0 {
		t.Fatalf("fresh knot: deadlocked=%v verdict=%+v since=%d", k.Deadlocked(), v, j.Since)
	}
	if v := j.Stuck(n); v.Rule != "missed-deadlock" {
		t.Fatalf("undispatched knot: %+v, want missed-deadlock", v)
	}
	if _, v := j.Dispatch(n, n.NIs[0], 0); v == nil || v.Rule != "unblocked-dispatch" {
		t.Fatalf("dispatch at an empty queue: %+v, want unblocked-dispatch", v)
	}
	if v := j.Stuck(n); v.Rule != "unrecovered-deadlock" {
		t.Fatalf("dispatched knot: %+v, want unrecovered-deadlock", v)
	}
}
