// CWG detector soundness: the knots the deadlock detector declares are what
// progressive recovery acts on, so a buggy detector silently converts
// congestion into rescues (false positives) or lets true deadlocks starve
// (false negatives). This file re-derives the knot set from the network's raw
// state and compares it against the flags the detector just published.
//
// The per-resource classification comes from the shared wait-edge helper
// (deadlock.WaitEdges) — the same derivation the scan and the probe engine
// use — while the knot computation on top of it (the escape propagation) is
// independent of the scan's reverse-BFS. The historical fully independent
// classification survives as the control in the differential test
// (waitedges_diff_test.go), which pins both derivations to identical edge
// sets on a congested run.

package check

import (
	"fmt"

	"repro/internal/deadlock"
	"repro/internal/network"
	"repro/internal/router"
)

// KnotRebuild is the result of an independent channel-wait-for-graph
// analysis: which resources are blocked, which escape, and how many sit in
// the knot. Vertices follow the detector's layout — VC vertices first
// (channel ID × VCs-per-channel + index), then NI input queues, then NI
// output queues. The model checker uses this as its ground-truth deadlock
// oracle; VerifyKnots uses it to audit the detector's published flags.
type KnotRebuild struct {
	Blocked []bool
	Escaped []bool
	// LockedCount is the number of blocked resources with no escape path —
	// the detector's deadlocked-resource count, independently derived.
	LockedCount int

	vcsPer int
}

// VCKnotted reports whether the rebuild places a VC inside the knot.
func (k *KnotRebuild) VCKnotted(vc *router.VC) bool {
	v := vc.Ch.ID*k.vcsPer + int(vc.Index)
	return k.Blocked[v] && !k.Escaped[v]
}

// Deadlocked reports whether any resource sits in a knot — a true
// message-dependent deadlock exists at this cycle boundary.
func (k *KnotRebuild) Deadlocked() bool { return k.LockedCount > 0 }

// RebuildKnots re-derives the knot set from the network's raw state. It must
// run on a cycle boundary; the answer describes this instant and goes stale
// as soon as the fabric moves.
func RebuildKnots(n *network.Network) *KnotRebuild {
	l := deadlock.LayoutOf(n)

	blocked := make([]bool, l.Total)
	waits := make([][]int32, l.Total)
	deadlock.WaitEdges(n, l, blocked, func(u, v int) {
		waits[u] = append(waits[u], int32(v))
	})

	// A blocked resource escapes when some wait-for path reaches any
	// non-blocked resource; the knot is what remains. Propagate escape
	// backwards over the wait edges with a worklist.
	pred := make([][]int32, l.Total)
	for u := range waits {
		for _, v := range waits[u] {
			pred[v] = append(pred[v], int32(u))
		}
	}
	escaped := make([]bool, l.Total)
	work := make([]int32, 0, l.Total)
	for v := 0; v < l.Total; v++ {
		if !blocked[v] {
			escaped[v] = true
			work = append(work, int32(v))
		}
	}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		for _, u := range pred[v] {
			if !escaped[u] {
				escaped[u] = true
				work = append(work, u)
			}
		}
	}

	lockedCount := 0
	for v := 0; v < l.Total; v++ {
		if blocked[v] && !escaped[v] {
			lockedCount++
		}
	}
	return &KnotRebuild{Blocked: blocked, Escaped: escaped, LockedCount: lockedCount, vcsPer: l.VCsPer}
}

// VerifyKnots rebuilds the channel-wait-for graph from the network's raw
// state and checks the detector's published verdict: every VC's Knotted flag
// and the total deadlocked-resource count. It must run on a cycle boundary
// immediately after a detector scan (the periodic schedule guarantees this
// by mirroring the scan cadence); the flags describe scan-time state and go
// stale as soon as the fabric moves.
func (c *Checker) VerifyKnots(now int64) {
	n := c.n
	k := RebuildKnots(n)
	for _, ch := range n.Channels {
		for _, vc := range ch.VCs {
			want := k.VCKnotted(vc)
			if vc.Knotted != want {
				c.report(now, "knot-soundness",
					fmt.Sprintf("%v: detector says knotted=%v, independent rebuild says %v", vc, vc.Knotted, want))
			}
		}
	}
	if n.Detector != nil && n.Detector.LastDeadlocked != k.LockedCount {
		c.report(now, "knot-count",
			fmt.Sprintf("detector reports %d deadlocked resources, independent rebuild finds %d",
				n.Detector.LastDeadlocked, k.LockedCount))
	}
}
