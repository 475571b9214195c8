// Probe-detector soundness: the distributed edge-chasing detector
// (internal/probe) declares deadlocks from local probe traffic, never from
// global state, so the checker cross-checks every declaration — and every
// conspicuous silence — against the independent CWG rebuild:
//
//   - probe-false-detection: a probe declaration lands while the declaring
//     origin is not even locally blocked. The engine re-verifies blocking
//     before declaring, so this can only come from a broken or forged
//     declaration path. Checked at declaration time, before recovery
//     dispatch mutates the state the probes chased.
//   - probe-missed-deadlock: the rebuild has seen an uninterrupted knot for
//     longer than the detection bound with no declaration since it formed.
//     The bound is MissedBound, which the model checker's missed-detection
//     deadline defaults to as well.
//
// A declaration whose origin IS blocked but for which the rebuild finds no
// knot is not a violation: edge-chasing samples wait edges as the probe
// hops, so a wait cycle that gains an escape mid-chase yields a stale
// return. That staleness is the detector's inherent false-positive rate —
// the quantity the detector-ablation experiment measures — and the checker
// counts it (ProbeStaleDeclares) instead of reporting it.

package check

import "fmt"

// attachProbe wires the cross-check when the watched network runs the probe
// detector; a no-op otherwise.
func (c *Checker) attachProbe() {
	n := c.n
	if n.Probe == nil {
		return
	}
	c.probeKnotSince = -1
	c.probeMissedBound = MissedBound(n.Cfg)
	prev := n.Probe.OnDeclare
	n.Probe.OnDeclare = func(origin int, now int64) {
		c.onProbeDeclare(origin, now)
		if prev != nil {
			prev(origin, now)
		}
	}
}

// onProbeDeclare validates one declaration against the rebuild. It runs
// inside the engine's Step, after channel commits — settled cycle-boundary
// state — and ahead of the recovery dispatch chained behind it.
func (c *Checker) onProbeDeclare(origin int, now int64) {
	c.probeDeclared = true
	if c.muted {
		return
	}
	if k := RebuildKnots(c.n); !k.Deadlocked() {
		l := c.n.Probe.Layout()
		if blocked, _ := l.ClassifyVertex(c.n, origin, nil); !blocked {
			c.report(now, "probe-false-detection",
				fmt.Sprintf("probe declared deadlock at vertex %d, which is not even blocked (%d flits in flight)",
					origin, c.n.OccupiedFlits()))
			return
		}
		// Blocked origin, no knot: a stale edge-chasing return — the
		// detector's inherent false positive, measured, not reported.
		c.ProbeStaleDeclares++
	}
}

// probeWatch ages the current knot (per the independent rebuild, on the
// periodic sweep cadence) and reports a missed deadlock when it outlives the
// detection bound with no declaration.
func (c *Checker) probeWatch(now int64) {
	if c.n.Probe == nil || c.muted || now%c.opts.Interval != 0 {
		return
	}
	k := RebuildKnots(c.n)
	if !k.Deadlocked() {
		c.probeKnotSince = -1
		return
	}
	if c.probeKnotSince < 0 {
		c.probeKnotSince = now
		c.probeDeclared = false
	}
	if !c.probeDeclared && now-c.probeKnotSince > c.probeMissedBound {
		c.report(now, "probe-missed-deadlock",
			fmt.Sprintf("true deadlock since cycle %d (%d knotted resources) and no probe declaration within %d cycles",
				c.probeKnotSince, k.LockedCount, c.probeMissedBound))
		c.probeKnotSince = now // re-arm so the report does not repeat every sweep
		c.probeDeclared = false
	}
}
