// The recovery judge. Both triggers, the endpoint threshold counter and the
// probe engine, end in a recovery dispatch at an endpoint input queue, which
// Network.OnDispatch sees before the scheme acts. A Judge holds every knot
// and every dispatch to the CWG rebuild, for the checker (one Judge, aged on
// the sweep cadence) and the model checker (one per path, aged every cycle):
//
//   - avoidance-violated: an avoidance scheme (SA, SQ) reached a knot at
//     all, reported once per knot.
//   - unblocked-dispatch: recovery is dispatched at an input queue in(e, q)
//     that is not blocked. Threshold fires only on a blocked queue and the
//     probe re-verifies its origin, so only a broken or forged trigger does
//     this.
//   - missed-deadlock: under a recovery scheme, a knot has lived longer than
//     MissedBound with no dispatch since it formed.
//   - unrecovered-deadlock / no-progress: a run that never quiesced ends
//     with a knot a dispatch was credited to, or with none.
//
// A dispatch at a blocked queue with no knot anywhere is the trigger's false
// positive (congestion, or a stale probe return): counted in
// NoKnotDispatches, as the detector experiment counts it, not reported.

package check

import (
	"fmt"

	"repro/internal/deadlock"
	"repro/internal/netiface"
	"repro/internal/network"
	"repro/internal/schemes"
)

// MissedBound is how many cycles a knot may live with no recovery dispatch
// before its trigger has missed it: a generous multiple of a threshold firing
// plus a probe's round trip, and of the scan period the knot is seen on.
func MissedBound(cfg network.Config) int64 {
	return 8*(int64(cfg.DetectThreshold)+cfg.CWGInterval) + 100
}

// Judge ages the live knot and judges it and every recovery dispatch: Since
// is the cycle the knot was first seen (-1 while there is none, so a new
// Judge is Judge{Since: -1}), Dispatched reports a recovery dispatch since
// then.
type Judge struct {
	Since      int64
	Dispatched bool
}

// Verdict is one rule a Judge finds broken, and what broke it.
type Verdict struct {
	Rule, Detail string
}

// Boundary rebuilds the knots at cycle boundary now, ages the live knot, and
// judges it: an avoidance scheme's knot is a violation the moment it is seen,
// a recovery scheme's once it outlives MissedBound with no dispatch (then
// re-armed, so the verdict does not repeat every call).
func (j *Judge) Boundary(n *network.Network, now int64) (*KnotRebuild, *Verdict) {
	k := RebuildKnots(n)
	avoids := n.Cfg.Scheme == schemes.SA || n.Cfg.Scheme == schemes.SQ
	bound := MissedBound(n.Cfg)
	switch {
	case !k.Deadlocked():
		j.Since = -1
	case j.Since < 0:
		j.Since, j.Dispatched = now, false
		if avoids {
			return k, &Verdict{"avoidance-violated",
				fmt.Sprintf("strict avoidance (%v) reached a true deadlock: %d knotted resources, %d txns in flight",
					n.Cfg.Scheme, k.LockedCount, n.Table.Len())}
		}
	case !avoids && !j.Dispatched && now-j.Since > bound:
		v := &Verdict{"missed-deadlock",
			fmt.Sprintf("true deadlock since cycle %d (%d knotted resources) and no recovery dispatch within %d cycles",
				j.Since, k.LockedCount, bound)}
		j.Since = now
		return k, v
	}
	return k, nil
}

// Dispatch judges a recovery dispatch at input queue (ni, q) (call it from
// Network.OnDispatch) and credits it to the live knot: noKnot is
// JudgeDispatch's false positive, and an unblocked queue is a verdict.
func (j *Judge) Dispatch(n *network.Network, ni *netiface.NI, q int) (noKnot bool, v *Verdict) {
	j.Dispatched = j.Dispatched || j.Since >= 0
	unblocked, noKnot := JudgeDispatch(n, ni, q)
	if unblocked {
		v = &Verdict{"unblocked-dispatch",
			fmt.Sprintf("recovery dispatched at in(%d, %d), which is not blocked (%d flits in flight)",
				ni.Cfg.Endpoint, q, n.OccupiedFlits())}
	}
	return noKnot, v
}

// Stuck judges a run that ended without quiescing: a knot no dispatch was
// credited to is missed, one a dispatch was credited to is unrecovered, and
// with no knot the run made no progress.
func (j *Judge) Stuck(n *network.Network) Verdict {
	k := RebuildKnots(n)
	switch {
	case k.Deadlocked() && !j.Dispatched:
		return Verdict{"missed-deadlock",
			fmt.Sprintf("run ended with %d knotted resources and no recovery dispatch", k.LockedCount)}
	case k.Deadlocked():
		return Verdict{"unrecovered-deadlock",
			fmt.Sprintf("run ended with %d resources still knotted after a recovery dispatch", k.LockedCount)}
	default:
		return Verdict{"no-progress",
			fmt.Sprintf("run ended without quiescing (%d txns in flight, no knot)", n.Table.Len())}
	}
}

// JudgeDispatch judges a recovery dispatch at input queue (ni, q) against the
// state it sees: unblocked when the queue is not blocked, which no honest
// trigger does; otherwise noKnot when the rebuild finds no knot anywhere, the
// trigger's false positive.
func JudgeDispatch(n *network.Network, ni *netiface.NI, q int) (unblocked, noKnot bool) {
	if blocked, _ := deadlock.LayoutOf(n).ClassifyIn(n, ni, ni.Cfg.Endpoint, q, nil); !blocked {
		return true, false
	}
	return false, !RebuildKnots(n).Deadlocked()
}

// onDispatch judges one recovery dispatch and credits it to the live knot.
func (c *Checker) onDispatch(ni *netiface.NI, q int, now int64) {
	noKnot, v := c.judge.Dispatch(c.n, ni, q)
	if noKnot {
		c.NoKnotDispatches++
	}
	if v != nil {
		c.report(now, v.Rule, v.Detail)
	}
}
