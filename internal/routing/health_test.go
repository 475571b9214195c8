package routing

import (
	"reflect"
	"testing"

	"repro/internal/topology"
)

// TestDORDetoursAroundDeadLink: with the minimal +x path cut, the escape hop
// must go the long way around the ring instead.
func TestDORDetoursAroundDeadLink(t *testing.T) {
	tor := topology.MustTorus([]int{8, 8}, 1)
	h := NewHealth(tor)
	src := tor.Node([]int{1, 0})
	dst := tor.Node([]int{3, 0})
	h.KillLink(src, 0) // +x out of (1,0)
	c := AppendCandidatesHealth(nil, h, tor, DOR, src, dst, 0, set2)
	if len(c) != 1 {
		t.Fatalf("got %d candidates, want 1", len(c))
	}
	if c[0].Port != 1 {
		t.Fatalf("detour port = %d, want -x(1)", c[0].Port)
	}
	// The detour crosses the wrap between 0 and 7, so it must ride the
	// pre-wrap escape VC.
	if int(c[0].VC) != set2.Escape[0] {
		t.Fatalf("detour VC = %d, want escape[0] (wrap ahead)", c[0].VC)
	}
}

// TestDORDetourConsistentAlongPath: every router on the detour, choosing
// independently from the same dead mask, keeps routing away from the cut —
// no ping-pong back toward the dead link.
func TestDORDetourConsistentAlongPath(t *testing.T) {
	tor := topology.MustTorus([]int{8, 8}, 1)
	h := NewHealth(tor)
	src := tor.Node([]int{1, 0})
	dst := tor.Node([]int{3, 0})
	h.KillLink(src, 0)
	cur := src
	for hops := 0; cur != dst; hops++ {
		if hops > 16 {
			t.Fatal("detour did not terminate")
		}
		dir, ok := dorStepHealth(h, tor, cur, dst)
		if !ok {
			t.Fatalf("parked at %d with a live path remaining", cur)
		}
		if h.LinkDead(cur, dir) {
			t.Fatalf("routed over the dead link at %d", cur)
		}
		cur = tor.Neighbor(cur, dir)
	}
}

// TestDORParksOnMeshCut: a mesh has no ring to detour around, so cutting the
// only minimal edge parks the packet (empty candidate list) instead of
// streaming it over the dead link.
func TestDORParksOnMeshCut(t *testing.T) {
	mesh, err := topology.NewMesh([]int{4, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHealth(mesh)
	src := mesh.Node([]int{0, 0})
	dst := mesh.Node([]int{1, 0})
	h.KillLink(src, 0) // the only productive first hop in dim 0
	c := AppendCandidatesHealth(nil, h, mesh, DOR, src, dst, 0, set2)
	if len(c) != 0 {
		t.Fatalf("mesh cut still yielded candidates: %v", c)
	}
}

// TestDORParksOnSeveredRing: both directions around the x ring cut at the
// current router — no live path in the lowest unresolved dimension.
func TestDORParksOnSeveredRing(t *testing.T) {
	tor := topology.MustTorus([]int{4, 4}, 1)
	h := NewHealth(tor)
	src := tor.Node([]int{0, 0})
	dst := tor.Node([]int{2, 0})
	h.KillLink(src, 0)
	h.KillLink(src, 1)
	c := AppendCandidatesHealth(nil, h, tor, DOR, src, dst, 0, set2)
	if len(c) != 0 {
		t.Fatalf("severed ring still yielded candidates: %v", c)
	}
}

// TestDeadLinkNeverFirstHop: across all modes and pairs, no candidate's
// first hop may cross a dead link; the list is within MaxCandidates; and it
// is the same list when appended to a slice that already holds something (a
// network appends every row of its table to one slab; TFAR's fallback used to
// fire only when the whole slice was empty).
func TestDeadLinkNeverFirstHop(t *testing.T) {
	tor := topology.MustTorus([]int{4, 4}, 1)
	h := NewHealth(tor)
	h.KillLink(tor.Node([]int{1, 1}), 0)
	h.KillLink(tor.Node([]int{2, 3}), 3)
	h.KillLink(tor.Node([]int{0, 0}), 2)
	for _, mode := range []Mode{DOR, Duato, TFAR} {
		atDst, routed := MaxCandidates(tor, mode, set4)
		for src := 0; src < tor.Routers(); src++ {
			for dst := 0; dst < tor.Routers(); dst++ {
				c := AppendCandidatesHealth(nil, h, tor, mode, topology.NodeID(src), topology.NodeID(dst), 0, set4)
				if bound := map[bool]int{true: atDst, false: routed}[src == dst]; len(c) > bound {
					t.Fatalf("%v %d->%d: %d candidates, MaxCandidates says at most %d", mode, src, dst, len(c), bound)
				}
				after := AppendCandidatesHealth([]PortVC{{Port: 200}}, h, tor, mode, topology.NodeID(src), topology.NodeID(dst), 0, set4)
				if len(after) != 1+len(c) || (len(c) > 0 && !reflect.DeepEqual(after[1:], c)) {
					t.Fatalf("%v %d->%d: appended to a non-empty slice gives %v, to nil %v", mode, src, dst, after[1:], c)
				}
				for _, pv := range c {
					if _, ej := IsEject(tor, int(pv.Port)); ej {
						continue
					}
					if h.LinkDead(topology.NodeID(src), topology.Direction(pv.Port)) {
						t.Fatalf("%v %d->%d offers dead first hop %v", mode, src, dst, pv)
					}
				}
			}
		}
	}
}

// TestTFARFallsBackToDetour: when every minimal first hop is dead, TFAR must
// offer the detoured DOR step rather than an empty (wedged) candidate set.
func TestTFARFallsBackToDetour(t *testing.T) {
	tor := topology.MustTorus([]int{8, 8}, 1)
	h := NewHealth(tor)
	src := tor.Node([]int{1, 0})
	dst := tor.Node([]int{3, 0})
	h.KillLink(src, 0) // the single minimal direction (+x) for this pair
	c := AppendCandidatesHealth(nil, h, tor, TFAR, src, dst, 0, set4)
	if len(c) == 0 {
		t.Fatal("TFAR wedged with a live detour available")
	}
	for _, pv := range c {
		if pv.Port != 1 {
			t.Fatalf("fallback candidate %v is not the -x detour", pv)
		}
	}
}

// TestHealthCounters: KillLink is idempotent and DeadLinks counts distinct
// links.
func TestHealthCounters(t *testing.T) {
	tor := topology.MustTorus([]int{4, 4}, 1)
	h := NewHealth(tor)
	if h.DeadLinks() != 0 {
		t.Fatalf("fresh health has %d dead links", h.DeadLinks())
	}
	h.KillLink(3, 2)
	h.KillLink(3, 2)
	h.KillLink(5, 0)
	if h.DeadLinks() != 2 {
		t.Fatalf("dead links = %d, want 2", h.DeadLinks())
	}
	if !h.LinkDead(3, 2) || !h.LinkDead(5, 0) || h.LinkDead(0, 0) {
		t.Fatal("dead mask wrong")
	}
}
