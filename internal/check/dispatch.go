// Recovery-trigger soundness. Both triggers, the endpoint threshold counter
// and the probe engine, end in a recovery dispatch at an endpoint input
// queue, and Network.OnDispatch sees each one before the scheme acts. The
// checker holds every dispatch, and every silence, to the CWG rebuild:
//
//   - unblocked-dispatch: recovery is dispatched at an input queue in(e, q)
//     that is not blocked. Threshold fires only on a blocked queue and the
//     probe re-verifies its origin, so only a broken or forged trigger does
//     this.
//   - missed-deadlock: a knot has lived longer than MissedBound with no
//     dispatch since it formed (KnotWatch, aged on the sweep cadence).
//
// A dispatch at a blocked queue with no knot anywhere is the trigger's false
// positive (congestion, or a stale probe return): counted in
// NoKnotDispatches, as the detector experiment counts it, not reported. The
// model checker judges its dispatches and ages its knots with the same
// JudgeDispatch and KnotWatch.

package check

import (
	"fmt"

	"repro/internal/deadlock"
	"repro/internal/netiface"
	"repro/internal/network"
)

// MissedBound is how many cycles a knot may live with no recovery dispatch
// before its trigger has missed it: a generous multiple of a threshold firing
// plus a probe's round trip, and of the scan period the knot is seen on.
func MissedBound(cfg network.Config) int64 {
	return 8*(int64(cfg.DetectThreshold)+cfg.CWGInterval) + 100
}

// KnotWatch ages the live knot: Since is the cycle it was first seen (-1
// while there is none), Dispatched reports a recovery dispatch since then.
type KnotWatch struct {
	Since      int64
	Dispatched bool
}

// NewKnotWatch returns a watch that has seen no knot.
func NewKnotWatch() KnotWatch { return KnotWatch{Since: -1} }

// Observe folds in whether the oracle sees a knot at cycle now.
func (w *KnotWatch) Observe(now int64, knot bool) {
	switch {
	case !knot:
		w.Since = -1
	case w.Since < 0:
		w.Since, w.Dispatched = now, false
	}
}

// Dispatch records a recovery dispatch against the live knot, if any.
func (w *KnotWatch) Dispatch() {
	w.Dispatched = w.Dispatched || w.Since >= 0
}

// Missed reports whether the live knot has outlived bound at cycle now with
// no dispatch.
func (w KnotWatch) Missed(now, bound int64) bool {
	return w.Since >= 0 && !w.Dispatched && now-w.Since > bound
}

// JudgeDispatch judges a recovery dispatch at input queue (ni, q) against the
// state it sees (call it from Network.OnDispatch): unblocked when the queue
// is not blocked, which no honest trigger does; otherwise noKnot when the
// rebuild finds no knot anywhere, the trigger's false positive.
func JudgeDispatch(n *network.Network, ni *netiface.NI, q int) (unblocked, noKnot bool) {
	if blocked, _ := deadlock.LayoutOf(n).ClassifyIn(n, ni, ni.Cfg.Endpoint, q, nil); !blocked {
		return true, false
	}
	return false, !RebuildKnots(n).Deadlocked()
}

// onDispatch judges one recovery dispatch and credits it to the live knot.
func (c *Checker) onDispatch(ni *netiface.NI, q int, now int64) {
	c.watch.Dispatch()
	if c.muted {
		return
	}
	unblocked, noKnot := JudgeDispatch(c.n, ni, q)
	if unblocked {
		c.report(now, "unblocked-dispatch",
			fmt.Sprintf("recovery dispatched at in(%d, %d), which is not blocked (%d flits in flight)",
				ni.Cfg.Endpoint, q, c.n.OccupiedFlits()))
	}
	if noKnot {
		c.NoKnotDispatches++
	}
}

// watchKnot ages the live knot and reports a missed deadlock.
func (c *Checker) watchKnot(now int64) {
	k := RebuildKnots(c.n)
	c.watch.Observe(now, k.Deadlocked())
	if bound := MissedBound(c.n.Cfg); c.watch.Missed(now, bound) {
		c.report(now, "missed-deadlock",
			fmt.Sprintf("true deadlock since cycle %d (%d knotted resources) and no recovery dispatch within %d cycles",
				c.watch.Since, k.LockedCount, bound))
		c.watch.Since = now // re-arm so the report does not repeat every sweep
	}
}
