package check_test

import (
	"testing"

	"repro/internal/check"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/schemes"
)

// TestRestoredNetworkPassesCheckNow is the active-set statement for
// snapshot/restore: a network restored mid-run must satisfy every
// mask/mirror/credit invariant immediately — before stepping a single cycle
// — because Restore rebuilds all derived acceleration state (occupancy
// words, occupancy counters, active sets) from the canonical fields it just
// wrote. The run then continues to completion under the periodic sweep and
// the CWG knot audit, both of which must stay clean.
func TestRestoredNetworkPassesCheckNow(t *testing.T) {
	cases := []struct {
		kind schemes.Kind
		pat  *protocol.Pattern
	}{
		{schemes.SA, protocol.PAT100},
		{schemes.DR, protocol.PAT280},
		{schemes.AB, protocol.PAT280},
		{schemes.PR, protocol.PAT721},
	}
	for _, tc := range cases {
		t.Run(tc.kind.String(), func(t *testing.T) {
			cfg := smallCfg(tc.kind, tc.pat, 4, 0.008)
			cfg.Warmup = 300
			cfg.Measure = 1200
			cfg.MaxDrain = 8000
			n := mustNet(t, cfg)

			// Reach a mid-run state with real in-flight traffic, snapshot it,
			// then let the live run wander off before rewinding.
			var snap *network.Snapshot
			for cycle := int64(0); cycle < cfg.Warmup+cfg.Measure; cycle++ {
				n.RunCycles(1)
				if cycle >= 400 && n.Table.Len() > 0 {
					snap = n.Snapshot()
					break
				}
			}
			if snap == nil {
				t.Fatal("no in-flight state to snapshot; raise the rate")
			}
			n.RunCycles(250)
			n.Restore(snap)

			c := check.Attach(n, check.Options{Interval: 1})
			c.CheckNow(n.Clock.Now())
			if err := c.Err(); err != nil {
				t.Fatalf("restored network fails invariants before stepping: %v", err)
			}

			n.Run()
			if err := c.Err(); err != nil {
				t.Fatalf("restored network fails invariants while running: %v", err)
			}
			if !n.Quiescent() {
				t.Fatalf("restored run did not drain: %d txns in flight", n.Table.Len())
			}
			if c.Checks() == 0 {
				t.Fatal("checker never ran")
			}
		})
	}
}

// TestRestoreAcrossKnotBoundary rewinds the CWG detector across a change of
// verdict, the way the model checker's Snapshot/Restore backtracking does.
// The scan keeps derived state between calls — the previous deadlocked set as
// a bitset and as a vertex list, whose emptiness gates flag publication — and
// a restoring Detector.Checkpoint must rebuild all of it from the snapshot.
// Restoring a knotted snapshot into a detector whose last live scan was clean,
// the next scan must still clear the VC flags the snapshot carries; restoring
// a clean snapshot into a detector that last saw a knot, the re-forming knot
// must count as fresh again. Either way the replayed scan must repeat the
// original verdict and pass the independent knot audit.
//
// The snapshot that is restored is also one taken while the source holds an
// arrival it has drawn but not reached (canonical state: it must come back)
// and, where the snapshot is the clean one — nothing sleeps in a knotted
// network this scarce — while an NI sleeps on the wake ring (derived state:
// Restore rebuilds it as everything awake). And because Snapshot settles the
// rotation catch-up sleeping components are owed on the live network, the live
// run, snapshotted after every scan, is held to an undisturbed run of the same
// configuration.
func TestRestoreAcrossKnotBoundary(t *testing.T) {
	type verdict struct {
		locked    int
		deadlocks int64
	}
	for _, tc := range []struct {
		name     string
		boundary func(prev, cur verdict) bool
		asleep   bool // the snapshot must catch an NI asleep on the wake ring
	}{
		{"knot-to-clean", func(prev, cur verdict) bool { return prev.locked > 0 && cur.locked == 0 }, false},
		{"clean-to-knot", func(prev, cur verdict) bool { return prev.locked == 0 && cur.locked > 0 }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallCfg(schemes.PR, protocol.PAT721, 2, 0.03)
			cfg.QueueCap = 2
			cfg.Warmup, cfg.Measure, cfg.MaxDrain = 0, 1<<30, 0
			n := mustNet(t, cfg)
			live := check.AttachDigest(n)
			iv := cfg.CWGInterval
			last := func() verdict { return verdict{n.Detector.LastDeadlocked, n.Detector.Deadlocks} }
			// sleeper: an NI out of the active set with a timer on the ring.
			sleeper := func() bool {
				for ep := range n.NIs {
					if until, ok := asleepOnTimer(n, ep); ok && n.NIWakeAt(ep) <= until {
						return true
					}
				}
				return false
			}

			// Stop one cycle after each scan, snapshotting there, until two
			// consecutive scans straddle the wanted boundary and the snapshot
			// between them caught a drawn-ahead arrival and, if wanted, a sleeper.
			n.RunCycles(iv + 1)
			var snap *network.Snapshot
			var prev, cur verdict
			for i := 0; ; i++ {
				if i == 400 {
					t.Fatal("run never crossed the boundary from such a snapshot; make resources scarcer")
				}
				asleep := sleeper()
				snap, prev = n.Snapshot(), last()
				drawnAhead := false
				for hit, ep := peek(n.Source, "hit"), 0; ep < hit.Len(); ep++ {
					drawnAhead = drawnAhead || hit.Index(ep).Bool()
				}
				n.RunCycles(iv)
				if cur = last(); tc.boundary(prev, cur) && drawnAhead && (asleep || !tc.asleep) {
					break
				}
			}

			// Snapshot may show on the live run in no way at all.
			u := mustNet(t, cfg)
			undisturbed := check.AttachDigest(u)
			u.RunCycles(n.Clock.Now())
			if live.Sum() != undisturbed.Sum() || live.Count() != undisturbed.Count() || live.Count() == 0 {
				t.Fatalf("the snapshotted run delivered %v (%d), an undisturbed one %v (%d)",
					live, live.Count(), undisturbed, undisturbed.Count())
			}

			// The live detector now holds cur's verdict; rewind it to prev's.
			n.Restore(snap)
			c := check.Attach(n, check.Options{})
			n.RunCycles(iv)
			if got := last(); got != cur {
				t.Fatalf("replayed scan found %+v, original %+v", got, cur)
			}
			c.VerifyKnots(n.Clock.Now() - 1)
			if err := c.Err(); err != nil {
				t.Fatalf("replayed scan fails the knot audit: %v", err)
			}
		})
	}
}
