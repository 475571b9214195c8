// Differential test for the shared wait-edge helper. When the per-resource
// classification moved from this package into deadlock.WaitEdges (so the
// scan, the rebuild, and the probe engine share one derivation), the old
// fully independent implementation was kept here verbatim as the control:
// both derivations must produce identical blocked sets and identical wait
// edges at every sampled cycle of a congested run. A divergence means the
// shared helper drifted from the semantics all three consumers were
// validated against.
package check_test

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/deadlock"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/schemes"
	"repro/internal/topology"
)

// edgeSet is one classification outcome: which vertices are blocked and,
// per blocked vertex, the sorted list of vertices it waits on.
type edgeSet struct {
	blocked []bool
	waits   [][]int32
}

func (s *edgeSet) normalize() {
	for _, es := range s.waits {
		sort.Slice(es, func(i, j int) bool { return es[i] < es[j] })
	}
}

// sharedEdges runs the production derivation (deadlock.WaitEdges).
func sharedEdges(n *network.Network) *edgeSet {
	l := deadlock.LayoutOf(n)
	s := &edgeSet{blocked: make([]bool, l.Total), waits: make([][]int32, l.Total)}
	deadlock.WaitEdges(n, l, s.blocked, func(u, v int) {
		s.waits[u] = append(s.waits[u], int32(v))
	})
	s.normalize()
	return s
}

// legacyEdges is the pre-refactor classification, preserved verbatim from
// the original RebuildKnots: it shares no code with internal/deadlock and
// serves as the control. Do not "fix" this to match the helper — if the two
// disagree, the helper is what changed.
func legacyEdges(n *network.Network) *edgeSet {
	vcsPer := n.VCsPerChannel()
	queues := 1
	if len(n.NIs) > 0 {
		queues = n.NIs[0].Cfg.Queues
	}
	numVC := len(n.Channels) * vcsPer
	inBase := numVC
	outBase := inBase + len(n.NIs)*queues
	total := outBase + len(n.NIs)*queues

	s := &edgeSet{blocked: make([]bool, total), waits: make([][]int32, total)}
	wait := func(u, v int) { s.waits[u] = append(s.waits[u], int32(v)) }
	vcVertex := func(vc *router.VC) int { return vc.Ch.ID*vcsPer + int(vc.Index) }

	for _, ch := range n.Channels {
		for _, vc := range ch.VCs {
			f, ok := vc.Front()
			if !ok || f.Pkt.BeingRescued {
				continue // empty, or progressing via the recovery lane
			}
			u := vcVertex(vc)
			if ch.Kind == router.KindEject {
				m := f.Pkt.Msg
				if !f.Head() || m.Preallocated {
					continue
				}
				ep := n.Torus.EndpointID(topology.Endpoint{Router: ch.Src, Local: ch.Local})
				q := n.QueueOf(m)
				if !n.NIs[ep].InSpace(q) {
					s.blocked[u] = true
					wait(u, inBase+ep*queues+q)
				}
				continue
			}
			if vc.Route != nil {
				if !vc.Route.SpaceFor() {
					s.blocked[u] = true
					wait(u, vcVertex(vc.Route))
				}
				continue
			}
			if !f.Head() {
				continue // transient unrouted body flit, treated as live
			}
			rid := ch.Src
			if ch.Kind == router.KindLink {
				rid = ch.Dst
			}
			rt := n.Routers[rid]
			free := false
			cands := n.RouteCandidates(rid, f.Pkt)
			for _, cd := range cands {
				if rt.Outputs[cd.Port].VCs[cd.VC].Owner == nil {
					free = true
					break
				}
			}
			if free {
				continue
			}
			s.blocked[u] = true
			for _, cd := range cands {
				wait(u, vcVertex(rt.Outputs[cd.Port].VCs[cd.VC]))
			}
		}
	}
	for ep, ni := range n.NIs {
		for q := 0; q < queues; q++ {
			if m, ok := ni.Head(q); ok {
				u := inBase + ep*queues + q
				if subQ, count, has := n.SubQueueOf(m); has && !ni.OutSpace(subQ, count) {
					s.blocked[u] = true
					wait(u, outBase+ep*queues+subQ)
				}
			}
			hm, _, vcAlloc, ok := ni.OutHead(q)
			if !ok {
				continue
			}
			u := outBase + ep*queues + q
			if vcAlloc != nil {
				if !vcAlloc.SpaceFor() {
					s.blocked[u] = true
					wait(u, vcVertex(vcAlloc))
				}
				continue
			}
			free := false
			for _, idx := range n.InjectVCsOf(hm) {
				if ni.Inject.VCs[idx].Owner == nil {
					free = true
					break
				}
			}
			if free {
				continue
			}
			s.blocked[u] = true
			for _, idx := range n.InjectVCsOf(hm) {
				wait(u, vcVertex(ni.Inject.VCs[idx]))
			}
		}
	}
	s.normalize()
	return s
}

// TestWaitEdgesMatchLegacy pins the shared helper to the historical
// classification over a congested 4x4 run: low VC count and high load so
// every classifier branch (allocated worms, unrouted headers, ejection
// backpressure, queue coupling, injection contention) actually occurs, with
// progressive recovery active so BeingRescued packets appear too.
func TestWaitEdgesMatchLegacy(t *testing.T) {
	cfg := smallCfg(schemes.PR, protocol.PAT280, 2, 0.05)
	cfg.FlitBuf = 1
	cfg.QueueCap = 2
	n := mustNet(t, cfg)

	blockedCycles, edgeTotal := 0, 0
	for cycle := 0; cycle < 4000; cycle++ {
		n.Step()
		if cycle%7 != 0 { // sample off the scan cadence as well as on it
			continue
		}
		got, want := sharedEdges(n), legacyEdges(n)
		if !reflect.DeepEqual(got.blocked, want.blocked) {
			t.Fatalf("cycle %d: blocked sets diverge", n.Clock.Now())
		}
		if !reflect.DeepEqual(got.waits, want.waits) {
			for u := range got.waits {
				if !reflect.DeepEqual(got.waits[u], want.waits[u]) {
					t.Fatalf("cycle %d: wait edges diverge at vertex %d: shared %v, legacy %v",
						n.Clock.Now(), u, got.waits[u], want.waits[u])
				}
			}
		}
		for u, b := range got.blocked {
			if b {
				blockedCycles++
				edgeTotal += len(got.waits[u])
			}
		}
	}
	// The comparison is vacuous if congestion never materialised.
	if blockedCycles == 0 || edgeTotal == 0 {
		t.Fatalf("run never produced blocked resources (blocked=%d edges=%d); raise the load", blockedCycles, edgeTotal)
	}
	t.Logf("compared %d blocked classifications, %d wait edges", blockedCycles, edgeTotal)
}
