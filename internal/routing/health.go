package routing

import (
	"fmt"

	"repro/internal/topology"
)

// Health is the routing layer's view of link liveness: a per-(router,
// direction) dead mask maintained by Network.KillLink. Routing functions
// consult it to exclude dead links from the candidate set and, for the
// escape path, to detour around them; a nil *Health (or one with no dead
// links) reproduces the fault-free candidate lists bit for bit.
//
// Dead links use drain semantics: a worm already allocated across the link
// finishes crossing, but no new route computation ever selects it. Lossy
// behaviour (dropping flits) is a separate fault mode handled above the
// routing layer, because a worm severed mid-link can never be recovered by
// a header-front rescue.
type Health struct {
	dirs int
	dead []bool // router*dirs + dir
	n    int    // dead-link count
}

// NewHealth builds an all-alive health mask for the topology.
func NewHealth(t *topology.Torus) *Health {
	return &Health{dirs: t.Directions(), dead: make([]bool, t.Routers()*t.Directions())}
}

// KillLink marks the link leaving router r in direction d dead. Killing a
// dead link again is a no-op.
func (h *Health) KillLink(r topology.NodeID, d topology.Direction) {
	i := int(r)*h.dirs + int(d)
	if !h.dead[i] {
		h.dead[i] = true
		h.n++
	}
}

// LinkDead reports whether the link leaving router r in direction d is dead.
func (h *Health) LinkDead(r topology.NodeID, d topology.Direction) bool {
	return h.dead[int(r)*h.dirs+int(d)]
}

// DeadLinks returns the number of links currently marked dead.
func (h *Health) DeadLinks() int { return h.n }

func (h *Health) String() string {
	return fmt.Sprintf("health{%d dead}", h.n)
}

// pathDead reports whether walking hops steps from cur in direction dir
// crosses a dead link.
func pathDead(h *Health, t *topology.Torus, cur topology.NodeID, dir topology.Direction, hops int) bool {
	node := cur
	for i := 0; i < hops; i++ {
		if h.LinkDead(node, dir) {
			return true
		}
		if !t.HasNeighbor(node, dir) {
			return true // mesh edge: the "path" falls off the grid
		}
		node = t.Neighbor(node, dir)
	}
	return false
}

// dorStepHealth is dorStep with dead-link avoidance: for the lowest
// unresolved dimension it checks whether the minimal ring path crosses a
// dead link and, if so, routes the non-minimal way around the ring instead.
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

// datelineVCPath picks the Dally-Seitz escape VC for a hop in direction dir
// along the actual (possibly non-minimal, detoured) remaining path: walk
// from cur in dir until the packet's coordinate in dir's dimension matches
// the destination's, and use escape VC 0 while the wrap edge is still
// ahead, 1 once it is not. A detour crosses the wrap at most once per
// dimension, so the discipline — wrap edges only ever used on VC 0 —
// holds and the escape channel-dependency graph stays acyclic.
func datelineVCPath(h *Health, t *topology.Torus, cur, dst topology.NodeID, dir topology.Direction) int {
	if !t.Wrap {
		return 0
	}
	dim := dir.Dim()
	node := cur
	for i := 0; i < t.Radix[dim]; i++ {
		if t.DeltaDim(node, dst, dim) == 0 {
			break
		}
		if t.CrossesWrap(node, dir) {
			return 0
		}
		node = t.Neighbor(node, dir)
	}
	return 1
}

// AppendCandidatesHealth is AppendCandidates with dead-link exclusion: link
// candidates whose first hop is dead are dropped, and the DOR escape hop
// detours around dead links where the topology permits. A nil health (or
// one with no dead links) delegates to AppendCandidates and is therefore
// bit-identical to the fault-free routing function.
func AppendCandidatesHealth(out []PortVC, h *Health, t *topology.Torus, mode Mode, cur, dstRouter topology.NodeID, dstLocal int, set VCSet) []PortVC {
	if h == nil || h.n == 0 {
		return AppendCandidates(out, t, mode, cur, dstRouter, dstLocal, set)
	}
	if cur == dstRouter {
		return AppendCandidates(out, t, mode, cur, dstRouter, dstLocal, set)
	}
	switch mode {
	case DOR:
		dir, ok := dorStepHealth(h, t, cur, dstRouter)
		if !ok {
			return out
		}
		return append(out, pvc(int(dir), set.Escape[datelineVCPath(h, t, cur, dstRouter, dir)], true))
	case Duato:
		for _, vc := range set.Adaptive {
			out = appendMinimalHealth(out, h, t, cur, dstRouter, vc)
		}
		if dir, ok := dorStepHealth(h, t, cur, dstRouter); ok {
			out = append(out, pvc(int(dir), set.Escape[datelineVCPath(h, t, cur, dstRouter, dir)], true))
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

// appendMinimalHealth is appendMinimal skipping directions whose minimal
// path — not just the first hop — crosses a dead link. Excluding only the
// first hop would livelock: a packet one hop shy of a dead link detours away,
// and the neighbouring router's (live) minimal hop points it straight back.
// Judging the whole remaining ride in the dimension makes every router along
// a detour agree, exactly like dorStepHealth.
func appendMinimalHealth(out []PortVC, h *Health, t *topology.Torus, cur, dst topology.NodeID, vc int) []PortVC {
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
			out = append(out, pvc(int(dir), vc, false))
		}
	}
	return out
}
