package deadlock

import (
	"math/bits"

	"repro/internal/netiface"
	"repro/internal/router"
	"repro/internal/topology"
)

// Wait-edge derivation shared by every consumer of the channel-wait-for
// graph: the periodic CWG scan (ScanAt), the independent knot rebuild in
// internal/check, and the distributed probe engine in internal/probe. All
// three need the same answer to the same question — "can this occupied
// resource advance this cycle, and if not, whose release is it waiting
// for?" — so the classification lives here exactly once. The scan and the
// rebuild walk the whole system through WaitEdges; the probe engine asks
// about single vertices through the Classify* methods as its probes hop.

// Layout fixes the CWG vertex numbering: channel VCs first (channel ID ×
// VCs-per-channel + VC index), then per-NI input queues, then per-NI output
// queues. Every consumer of the wait graph shares this numbering, so vertex
// IDs are directly comparable across the scan, the rebuild, and probe
// payloads.
type Layout struct {
	// VCsPer is the uniform virtual-channel count per physical channel.
	VCsPer int
	// Queues is the uniform endpoint queue count.
	Queues int
	// NumVC is the number of VC vertices; InBase/OutBase are the first
	// input-queue and output-queue vertex IDs; Total is the vertex count.
	NumVC   int
	InBase  int
	OutBase int
	Total   int
}

// LayoutOf derives the vertex layout from the host's immutable shape.
func LayoutOf(h Host) Layout {
	l := Layout{VCsPer: h.VCsPerChannel(), Queues: 1}
	if nis := h.AllNIs(); len(nis) > 0 {
		l.Queues = nis[0].Cfg.Queues
	}
	l.NumVC = len(h.AllChannels()) * l.VCsPer
	l.InBase = l.NumVC
	l.OutBase = l.InBase + len(h.AllNIs())*l.Queues
	l.Total = l.OutBase + len(h.AllNIs())*l.Queues
	return l
}

// VCVertex returns a virtual channel's vertex ID.
func (l Layout) VCVertex(vc *router.VC) int { return vc.Ch.ID*l.VCsPer + int(vc.Index) }

// vcAt maps a VC vertex back to its virtual channel.
func (l Layout) vcAt(h Host, v int) *router.VC {
	return h.AllChannels()[v/l.VCsPer].VCs[v%l.VCsPer]
}

// InVertex returns the vertex ID of endpoint ep's input queue q.
func (l Layout) InVertex(ep, q int) int { return l.InBase + ep*l.Queues + q }

// OutVertex returns the vertex ID of endpoint ep's output queue q.
func (l Layout) OutVertex(ep, q int) int { return l.OutBase + ep*l.Queues + q }

// InQueueOf maps an input-queue vertex back to its (endpoint, queue) pair;
// ok=false for vertices outside the input-queue range.
func (l Layout) InQueueOf(v int) (ep, q int, ok bool) {
	if v < l.InBase || v >= l.OutBase {
		return 0, 0, false
	}
	v -= l.InBase
	return v / l.Queues, v % l.Queues, true
}

// OutQueueOf maps an output-queue vertex back to its (endpoint, queue) pair.
func (l Layout) OutQueueOf(v int) (ep, q int, ok bool) {
	if v < l.OutBase || v >= l.Total {
		return 0, 0, false
	}
	v -= l.OutBase
	return v / l.Queues, v % l.Queues, true
}

// ClassifyVC classifies one virtual channel: blocked=true when its occupant
// cannot advance this cycle, with the wait-for targets appended to edges.
// Empty or progressing VCs return blocked=false with edges untouched.
func (l Layout) ClassifyVC(h Host, vc *router.VC, edges []int) (bool, []int) {
	f, ok := vc.Front()
	if !ok || f.Pkt.BeingRescued {
		return false, edges // empty, or progressing via the recovery lane
	}
	ch := vc.Ch
	if ch.Kind == router.KindEject {
		// Consumed by the NI: body flits and preallocated sinks always
		// progress; a header needing a queue slot waits on the input queue.
		m := f.Pkt.Msg
		if !f.Head() || m.Preallocated {
			return false, edges
		}
		ep := h.Topology().EndpointID(topology.Endpoint{Router: ch.Src, Local: ch.Local})
		q := h.QueueOf(m)
		if h.AllNIs()[ep].InSpace(q) {
			return false, edges
		}
		return true, append(edges, l.InVertex(ep, q))
	}
	// Link or injection channel: consumed by a router.
	if vc.Route != nil {
		if vc.Route.SpaceFor() {
			return false, edges
		}
		return true, append(edges, l.VCVertex(vc.Route))
	}
	if !f.Head() {
		// A body flit with no route can only occur transiently; treat as
		// live defensively.
		return false, edges
	}
	// Unrouted header: waits on every candidate output VC.
	rid := ch.Src
	if ch.Kind == router.KindLink {
		rid = ch.Dst
	}
	rt := h.RouterByID(rid)
	cands := h.RouteCandidates(rid, f.Pkt)
	for _, c := range cands {
		if rt.Outputs[c.Port].VCs[c.VC].Owner == nil {
			return false, edges
		}
	}
	for _, c := range cands {
		edges = append(edges, l.VCVertex(rt.Outputs[c.Port].VCs[c.VC]))
	}
	return true, edges
}

// ClassifyIn classifies endpoint ep's input queue q: blocked when its head
// cannot be serviced (no output space for the subordinates it spawns).
func (l Layout) ClassifyIn(h Host, ni *netiface.NI, ep, q int, edges []int) (bool, []int) {
	m, ok := ni.Head(q)
	if !ok {
		return false, edges
	}
	subQ, count, has := h.SubQueueOf(m)
	if !has || ni.OutSpace(subQ, count) {
		return false, edges // terminating messages always drain
	}
	return true, append(edges, l.OutVertex(ep, subQ))
}

// ClassifyOut classifies endpoint ep's output queue q: blocked when its head
// cannot stream a flit into the injection channel.
func (l Layout) ClassifyOut(h Host, ni *netiface.NI, ep, q int, edges []int) (bool, []int) {
	hm, _, vcAlloc, ok := ni.OutHead(q)
	if !ok {
		return false, edges
	}
	if vcAlloc != nil {
		// Mid-injection worm: streams iff the held VC has space.
		if vcAlloc.SpaceFor() {
			return false, edges
		}
		return true, append(edges, l.VCVertex(vcAlloc))
	}
	// Uninjected header: needs a free VC from its allowed set.
	for _, idx := range h.InjectVCsOf(hm) {
		if ni.Inject.VCs[idx].Owner == nil {
			return false, edges
		}
	}
	for _, idx := range h.InjectVCsOf(hm) {
		edges = append(edges, l.VCVertex(ni.Inject.VCs[idx]))
	}
	return true, edges
}

// ClassifyVertex classifies any vertex by its layout range, dispatching to
// the per-resource classifiers. Used by the probe engine, whose probes carry
// bare vertex IDs.
func (l Layout) ClassifyVertex(h Host, v int, edges []int) (bool, []int) {
	switch {
	case v < l.NumVC:
		return l.ClassifyVC(h, l.vcAt(h, v), edges)
	case v < l.OutBase:
		ep, q, _ := l.InQueueOf(v)
		return l.ClassifyIn(h, h.AllNIs()[ep], ep, q, edges)
	default:
		ep, q, _ := l.OutQueueOf(v)
		return l.ClassifyOut(h, h.AllNIs()[ep], ep, q, edges)
	}
}

// WaitEdges derives the full channel-wait-for graph: blocked[v] is set for
// every resource whose occupant cannot advance this cycle, and addEdge(u, v)
// is called for each wait-for edge (u waits on v). blocked must have
// l.Total entries. Resources left unmarked can progress (or are empty) — a
// knot is a set of blocked resources with no wait path to any unmarked one.
func WaitEdges(h Host, l Layout, blocked []bool, addEdge func(u, v int)) {
	forEachBlocked(h, l, nil, func(u int, waits []int) {
		blocked[u] = true
		for _, v := range waits {
			addEdge(u, v)
		}
	})
}

// forEachBlocked is the walk behind WaitEdges and the scan: it classifies
// every occupied resource and calls visit(u, waits) for each blocked vertex
// u with the vertices it waits on, in ascending vertex order (VCs, then
// input queues, then output queues — the scan ranks vertices by that order).
// Only VCs whose bit is set in their channel's committed-occupancy mask are
// classified: an empty VC is never blocked. waits aliases edges, the
// classifier scratch, and is valid only during the call; the (possibly
// grown) scratch is returned for reuse.
func forEachBlocked(h Host, l Layout, edges []int, visit func(u int, waits []int)) []int {
	var b bool
	for _, ch := range h.AllChannels() {
		for w := ch.OccMask(); w != 0; w &= w - 1 {
			vc := ch.VCs[bits.TrailingZeros64(w)]
			if b, edges = l.ClassifyVC(h, vc, edges[:0]); b {
				visit(l.VCVertex(vc), edges)
			}
		}
	}
	nis := h.AllNIs()
	for ep, ni := range nis {
		for q := 0; q < l.Queues; q++ {
			if b, edges = l.ClassifyIn(h, ni, ep, q, edges[:0]); b {
				visit(l.InVertex(ep, q), edges)
			}
		}
	}
	for ep, ni := range nis {
		for q := 0; q < l.Queues; q++ {
			if b, edges = l.ClassifyOut(h, ni, ep, q, edges[:0]); b {
				visit(l.OutVertex(ep, q), edges)
			}
		}
	}
	return edges
}
