package routing

import (
	"fmt"

	"repro/internal/topology"
)

// Health is the routing layer's view of link liveness: a per-(router,
// direction) dead mask maintained by Network.KillLink. The routing function
// consults it to exclude dead links from the candidate set and, for the
// escape path, to detour around them. A nil *Health is the mask with every
// link alive: its methods answer for it, and the routing function given one
// produces the fault-free candidate lists.
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
	return h != nil && h.dead[int(r)*h.dirs+int(d)]
}

// DeadLinks returns the number of links currently marked dead.
func (h *Health) DeadLinks() int {
	if h == nil {
		return 0
	}
	return h.n
}

func (h *Health) String() string {
	return fmt.Sprintf("health{%d dead}", h.DeadLinks())
}

// pathDead reports whether walking hops steps from cur in direction dir
// crosses a dead link or, on a mesh, falls off the grid. With every link
// alive (a nil h) it is false at once: the routing function walks only
// minimal paths, which stay on the grid, until a dead link sends it the long
// way round a ring.
func pathDead(h *Health, t *topology.Torus, cur topology.NodeID, dir topology.Direction, hops int) bool {
	if h == nil {
		return false
	}
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
