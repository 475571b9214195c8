// Package routing implements the routing functions evaluated in the paper:
// deterministic dimension-order routing with the Dally-Seitz two-virtual-
// channel dateline discipline for tori, Duato's protocol (minimal fully
// adaptive channels backed by a deadlock-free escape subnetwork), and True
// Fully Adaptive Routing (all virtual channels usable with no restriction,
// relying on deadlock recovery). Functions are stateless: given a packet's
// position and destination plus the virtual-channel sets a handling scheme
// makes available, they return an ordered candidate list of (port, VC)
// pairs.
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

// dorStep returns the dimension-order next hop: the direction resolving the
// lowest unresolved dimension, or ok=false at the destination router.
func dorStep(t *topology.Torus, cur, dst topology.NodeID) (topology.Direction, bool) {
	for dim := 0; dim < t.Dims(); dim++ {
		d := t.DeltaDim(cur, dst, dim)
		if d > 0 {
			return topology.Direction(2 * dim), true
		}
		if d < 0 {
			return topology.Direction(2*dim + 1), true
		}
	}
	return 0, false
}

// datelineVC picks which of the two escape VCs a DOR packet must use for a
// hop in direction dir: escape[0] while the remaining path in dir's
// dimension still has the wraparound link ahead of it, escape[1] once it
// does not. The wrap edge of each unidirectional ring is therefore only ever
// used on escape[0], and escape[1] forms a spiral with no cycle, giving an
// acyclic escape channel-dependency graph (Dally-Seitz).
func datelineVC(t *topology.Torus, cur, dst topology.NodeID, dir topology.Direction) int {
	if !t.Wrap {
		return 0 // a mesh has no datelines; its single escape VC suffices
	}
	delta := t.DeltaDim(cur, dst, dir.Dim())
	hops := delta
	if hops < 0 {
		hops = -hops
	}
	// Walk the remaining ring path and see if it includes the wrap edge.
	node := cur
	for i := 0; i < hops; i++ {
		if t.CrossesWrap(node, dir) {
			return 0
		}
		node = t.Neighbor(node, dir)
	}
	return 1
}

// Candidates returns the ordered (port, VC) candidates for a packet at
// router cur heading to destination router dstRouter, local NI dstLocal,
// under the given mode and VC set. Adaptive candidates come first so that
// allocation prefers them; the escape candidate is last, preserving Duato's
// "escape always available" property while exploiting adaptivity. At the
// destination router the only candidate is the ejection port, on which every
// VC in the set is usable.
func Candidates(t *topology.Torus, mode Mode, cur, dstRouter topology.NodeID, dstLocal int, set VCSet) []PortVC {
	return AppendCandidates(nil, t, mode, cur, dstRouter, dstLocal, set)
}

// AppendCandidates appends the same ordered candidates Candidates returns to
// out and returns the extended slice. Passing a scratch slice with retained
// capacity (truncated to length 0) makes the per-cycle route-computation
// stage allocation-free; the result aliases out and is only valid until the
// scratch is reused.
func AppendCandidates(out []PortVC, t *topology.Torus, mode Mode, cur, dstRouter topology.NodeID, dstLocal int, set VCSet) []PortVC {
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
		dir, ok := dorStep(t, cur, dstRouter)
		if !ok {
			return out
		}
		return append(out, pvc(int(dir), set.Escape[datelineVC(t, cur, dstRouter, dir)], true))
	case Duato:
		for _, vc := range set.Adaptive {
			out = appendMinimal(out, t, cur, dstRouter, vc)
		}
		dir, _ := dorStep(t, cur, dstRouter)
		return append(out, pvc(int(dir), set.Escape[datelineVC(t, cur, dstRouter, dir)], true))
	case TFAR:
		for _, vc := range set.Adaptive {
			out = appendMinimal(out, t, cur, dstRouter, vc)
		}
		for _, vc := range set.Escape {
			out = appendMinimal(out, t, cur, dstRouter, vc)
		}
		return out
	default:
		panic("routing: unknown mode")
	}
}

// MaxCandidates bounds the length of any list AppendCandidates or
// AppendCandidatesHealth produces for the mode and VC set on t, whatever the
// position, destination and link health: atDst at the destination router
// (every VC of the set on the ejection port, exactly), routed anywhere else
// (at most one candidate per dimension for each VC the mode routes
// adaptively, plus Duato's one escape hop; TFAR's all-minimal-hops-dead
// fallback is one direction, within it). A candidate table sized by it is
// filled in one pass without growing.
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

// appendMinimal appends one candidate per minimal-path direction for a single
// VC, in dimension order — the same order topology.MinimalDirections yields,
// without materializing the direction list.
func appendMinimal(out []PortVC, t *topology.Torus, cur, dst topology.NodeID, vc int) []PortVC {
	for dim := 0; dim < t.Dims(); dim++ {
		switch d := t.DeltaDim(cur, dst, dim); {
		case d > 0:
			out = append(out, pvc(2*dim, vc, false))
		case d < 0:
			out = append(out, pvc(2*dim+1, vc, false))
		}
	}
	return out
}
