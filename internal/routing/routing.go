// Package routing implements the routing functions evaluated in the paper:
// deterministic dimension-order routing with the Dally-Seitz two-virtual-
// channel dateline discipline for tori, Duato's protocol (minimal fully
// adaptive channels backed by a deadlock-free escape subnetwork), and True
// Fully Adaptive Routing (all virtual channels usable with no restriction,
// relying on deadlock recovery). One stateless function computes all three,
// AppendCandidatesHealth: given a packet's position and destination, the
// virtual-channel sets a handling scheme makes available and a link-health
// mask (nil when every link is alive), it returns an ordered candidate list
// of (port, VC) pairs. A fault-free network and a faulted one route through
// the same code.
package routing

import (
	"fmt"

	"repro/internal/topology"
)

// Mode selects the routing algorithm.
type Mode int

const (
	// DOR is deterministic dimension-order routing on the escape VCs.
	DOR Mode = iota
	// Duato is minimal fully adaptive routing on the adaptive VCs with a
	// DOR escape path always available (Duato's protocol).
	Duato
	// TFAR is true fully adaptive routing: every VC in the allowed set is
	// usable on any minimal direction; deadlock is possible and must be
	// recovered from.
	TFAR
)

func (m Mode) String() string {
	switch m {
	case DOR:
		return "dor"
	case Duato:
		return "duato"
	case TFAR:
		return "tfar"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// PortVC is a routing candidate: an output port of the current router and a
// virtual-channel index on that port. Ports 0..Directions-1 are link outputs
// in topology direction order; port Directions+k is the ejection channel to
// the router's k-th local network interface. Escape marks the candidate as
// an escape-channel hop (allocation prefers adaptive candidates and spreads
// across them; the escape is the guaranteed fallback of Duato's protocol).
//
// The fields are as narrow as indexing needs, three bytes and no pointer, so
// a network's whole candidate table is one slab the collector never scans.
// MaxPorts and MaxVCs are what they hold; network.Config.Validate admits
// nothing wider, and a caller that builds a topology by hand must not either.
type PortVC struct {
	Port   uint8
	VC     uint8
	Escape bool
}

// MaxPorts and MaxVCs bound a router's output ports (link directions plus
// local interfaces) and a channel's virtual channels: the values PortVC's
// fields can index.
const (
	MaxPorts = 1 << 8
	MaxVCs   = 1 << 8
)

// pvc packs a candidate; port and vc are within MaxPorts and MaxVCs.
func pvc(port, vc int, escape bool) PortVC {
	return PortVC{Port: uint8(port), VC: uint8(vc), Escape: escape}
}

// EjectPort returns the port number of the ejection channel to local NI k.
func EjectPort(t *topology.Torus, k int) int { return t.Directions() + k }

// IsEject reports whether port p is an ejection port, and which local NI it
// targets.
func IsEject(t *topology.Torus, p int) (int, bool) {
	if p >= t.Directions() {
		return p - t.Directions(), true
	}
	return 0, false
}

// VCSet is the pair of virtual-channel index sets a scheme grants a message:
// escape channels (two for torus DOR in dateline order — Escape[0] before
// the wrap crossing, Escape[1] after — or one for a mesh) and adaptive
// channels (possibly empty).
type VCSet struct {
	Escape   []int
	Adaptive []int
}

// All returns every VC index in the set, adaptive first.
func (s VCSet) All() []int {
	out := make([]int, 0, len(s.Adaptive)+len(s.Escape))
	out = append(out, s.Adaptive...)
	out = append(out, s.Escape...)
	return out
}

// AppendCandidates is AppendCandidatesHealth with every link alive.
func AppendCandidates(out []PortVC, t *topology.Torus, mode Mode, cur, dstRouter topology.NodeID, dstLocal int, set VCSet) []PortVC {
	return AppendCandidatesHealth(out, nil, t, mode, cur, dstRouter, dstLocal, set)
}

// AppendCandidatesHealth appends to out the ordered (port, VC) candidates for
// a packet at router cur heading to destination router dstRouter, local NI
// dstLocal, under the given mode and VC set, with the links h marks dead
// excluded (a nil h has every link alive), and returns the extended slice.
// Adaptive candidates come first so that allocation prefers them; the escape
// candidate is last, preserving Duato's "escape always available" property
// while exploiting adaptivity. At the destination router the only candidate
// is the ejection port, on which every VC in the set is usable. A link
// candidate is offered only if its whole remaining ride in its dimension is
// live, and the DOR escape hop detours the long way round a ring whose
// minimal side is dead; with nowhere live to go the list is empty and the
// packet parks. Passing a scratch slice with retained capacity (truncated to
// length 0) appends without allocating; the result aliases out.
func AppendCandidatesHealth(out []PortVC, h *Health, t *topology.Torus, mode Mode, cur, dstRouter topology.NodeID, dstLocal int, set VCSet) []PortVC {
	if cur == dstRouter {
		ej := EjectPort(t, dstLocal)
		for _, vc := range set.Adaptive {
			out = append(out, pvc(ej, vc, false))
		}
		for _, vc := range set.Escape {
			out = append(out, pvc(ej, vc, false))
		}
		return out
	}
	switch mode {
	case DOR:
		dir, ok := dorStepHealth(h, t, cur, dstRouter)
		if !ok {
			return out
		}
		return append(out, pvc(int(dir), set.Escape[datelineVCPath(t, cur, dstRouter, dir)], true))
	case Duato:
		for _, vc := range set.Adaptive {
			out = appendMinimalHealth(out, h, t, cur, dstRouter, vc)
		}
		if dir, ok := dorStepHealth(h, t, cur, dstRouter); ok {
			out = append(out, pvc(int(dir), set.Escape[datelineVCPath(t, cur, dstRouter, dir)], true))
		}
		return out
	case TFAR:
		base := len(out)
		for _, vc := range set.Adaptive {
			out = appendMinimalHealth(out, h, t, cur, dstRouter, vc)
		}
		for _, vc := range set.Escape {
			out = appendMinimalHealth(out, h, t, cur, dstRouter, vc)
		}
		if len(out) == base {
			// Every minimal first hop is dead: fall back to the detoured
			// DOR step on the first allowed VC so the packet can route
			// around the break instead of wedging unroutable.
			if dir, ok := dorStepHealth(h, t, cur, dstRouter); ok {
				all := set.Adaptive
				if len(all) == 0 {
					all = set.Escape
				}
				for _, vc := range all {
					out = append(out, pvc(int(dir), vc, false))
				}
			}
		}
		return out
	default:
		panic("routing: unknown mode")
	}
}

// MaxCandidates bounds the length of any list AppendCandidatesHealth
// produces for the mode and VC set on t, whatever the position, destination
// and link health: atDst at the destination router (every VC of the set on
// the ejection port, exactly), routed anywhere else (at most one candidate
// per dimension for each VC the mode routes adaptively, plus Duato's one
// escape hop; TFAR's all-minimal-hops-dead fallback is one direction, within
// it). A candidate table sized by it is filled in one pass without growing.
func MaxCandidates(t *topology.Torus, mode Mode, set VCSet) (atDst, routed int) {
	atDst = len(set.Adaptive) + len(set.Escape)
	switch mode {
	case DOR:
		return atDst, 1
	case Duato:
		return atDst, len(set.Adaptive)*t.Dims() + 1
	case TFAR:
		return atDst, atDst * t.Dims()
	default:
		panic("routing: unknown mode")
	}
}

// dorStepHealth is the dimension-order next hop with dead-link avoidance:
// the direction resolving the lowest unresolved dimension, or ok=false at
// the destination router. If the minimal ring path in that dimension crosses
// a dead link it routes the non-minimal way around the ring instead.
// The decision depends only on (position, destination, dead mask), so every
// router along the detour chooses consistently and the path cannot livelock.
// When no live path exists in the dimension (a mesh edge cut, or both ways
// around a ring severed) it returns ok=false: the packet parks unrouted at
// the current router rather than being streamed over a dead link, which
// progressive recovery's failure-free lane can still rescue and drain
// detection otherwise reports as partial delivery.
func dorStepHealth(h *Health, t *topology.Torus, cur, dst topology.NodeID) (topology.Direction, bool) {
	for dim := 0; dim < t.Dims(); dim++ {
		d := t.DeltaDim(cur, dst, dim)
		if d == 0 {
			continue
		}
		dir := topology.Direction(2 * dim)
		if d < 0 {
			dir = topology.Direction(2*dim + 1)
			d = -d
		}
		if !pathDead(h, t, cur, dir, d) {
			return dir, true
		}
		if t.Wrap {
			opp := dir.Opposite()
			if !pathDead(h, t, cur, opp, t.Radix[dim]-d) {
				return opp, true
			}
		}
		return 0, false
	}
	return 0, false
}

// datelineVCPath picks which of the two escape VCs a DOR packet must use for
// a hop in direction dir, along the remaining path in dir's dimension (the
// minimal one, or the long way round on a detour): escape[0] while that path
// still has the wraparound link ahead of it, escape[1] once it does not. The
// wrap edge of each unidirectional ring is therefore only ever used on
// escape[0], and escape[1] forms a spiral with no cycle, giving an acyclic
// escape channel-dependency graph (Dally-Seitz). A detour crosses the wrap at
// most once per dimension, so the discipline holds on it too.
func datelineVCPath(t *topology.Torus, cur, dst topology.NodeID, dir topology.Direction) int {
	if !t.Wrap {
		return 0 // a mesh has no datelines; its single escape VC suffices
	}
	dim := dir.Dim()
	k := t.Radix[dim]
	// The hops left in the dimension, counted along dir: the minimal delta,
	// or the rest of the ring when dir is the long way round.
	hops := t.DeltaDim(cur, dst, dim)
	c := t.Coord(cur, dim)
	if !dir.Plus() {
		hops, c = -hops, k-1-c // mirror the ring so the ride counts up
	}
	if hops < 0 {
		hops += k
	}
	if c+hops >= k {
		return 0 // the ride passes coordinate k-1: the wrap edge is ahead
	}
	return 1
}

// appendMinimalHealth appends one candidate per minimal-path direction for a
// single VC, in dimension order (the order topology.MinimalDirections yields,
// without materializing the direction list), skipping directions whose
// minimal path — not just the first hop — crosses a dead link. Excluding only
// the first hop would livelock: a packet one hop shy of a dead link detours
// away, and the neighbouring router's (live) minimal hop points it straight
// back. Judging the whole remaining ride in the dimension makes every router
// along a detour agree, exactly like dorStepHealth.
func appendMinimalHealth(out []PortVC, h *Health, t *topology.Torus, cur, dst topology.NodeID, vc int) []PortVC {
	for dim := 0; dim < t.Dims(); dim++ {
		switch d := t.DeltaDim(cur, dst, dim); {
		case d > 0 && !pathDead(h, t, cur, topology.Direction(2*dim), d):
			out = append(out, pvc(2*dim, vc, false))
		case d < 0 && !pathDead(h, t, cur, topology.Direction(2*dim+1), -d):
			out = append(out, pvc(2*dim+1, vc, false))
		}
	}
	return out
}
