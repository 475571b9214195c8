package routing

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/topology"
)

var set2 = VCSet{Escape: []int{0, 1}}
var set4 = VCSet{Escape: []int{0, 1}, Adaptive: []int{2, 3}}

func TestDORSingleCandidate(t *testing.T) {
	tor := topology.MustTorus([]int{4, 4}, 1)
	c := AppendCandidates(nil, tor, DOR, 0, 5, 0, set2)
	if len(c) != 1 {
		t.Fatalf("DOR returned %d candidates", len(c))
	}
	// 0=(0,0) to 5=(1,1): dimension order resolves dim 0 first (+x).
	if c[0].Port != 0 {
		t.Fatalf("DOR first hop port = %d, want +x(0)", c[0].Port)
	}
}

func TestDORResolvesDimensionsInOrder(t *testing.T) {
	tor := topology.MustTorus([]int{4, 4}, 1)
	// 4=(1,0) to 5=(1,1): dim 0 resolved, so travel +y (port 2).
	c := AppendCandidates(nil, tor, DOR, 4, 5, 0, set2)
	if c[0].Port != 2 {
		t.Fatalf("port = %d, want +y(2)", c[0].Port)
	}
}

func TestDOREjectionAtDestination(t *testing.T) {
	tor := topology.MustTorus([]int{4, 4}, 1)
	c := AppendCandidates(nil, tor, DOR, 5, 5, 0, set2)
	if len(c) == 0 {
		t.Fatal("no ejection candidates")
	}
	for _, pv := range c {
		if _, ej := IsEject(tor, int(pv.Port)); !ej {
			t.Fatalf("candidate %v is not an ejection port", pv)
		}
	}
}

func TestDatelineDiscipline(t *testing.T) {
	tor := topology.MustTorus([]int{8, 8}, 1)
	// From (6,0) to (1,0): +x crossing the wrap between 7 and 0. Before
	// the wrap the packet must use escape[0].
	src := tor.Node([]int{6, 0})
	dst := tor.Node([]int{1, 0})
	c := AppendCandidates(nil, tor, DOR, src, dst, 0, set2)
	if c[0].VC != 0 {
		t.Fatalf("pre-wrap VC = %d, want escape[0]", c[0].VC)
	}
	// After crossing (at (0,0)), remaining path has no wrap: escape[1].
	at := tor.Node([]int{0, 0})
	c = AppendCandidates(nil, tor, DOR, at, dst, 0, set2)
	if c[0].VC != 1 {
		t.Fatalf("post-wrap VC = %d, want escape[1]", c[0].VC)
	}
	// A path that never crosses the wrap uses escape[1] throughout.
	c = AppendCandidates(nil, tor, DOR, tor.Node([]int{1, 0}), tor.Node([]int{3, 0}), 0, set2)
	if c[0].VC != 1 {
		t.Fatalf("no-wrap VC = %d, want escape[1]", c[0].VC)
	}
}

// TestEscapeCDGAcyclic verifies the fundamental deadlock-freedom property of
// the Dally-Seitz discipline as implemented: the channel dependency graph
// induced by DOR over the escape VCs of every (src,dst) pair is acyclic.
func TestEscapeCDGAcyclic(t *testing.T) {
	tor := topology.MustTorus([]int{4, 4}, 1)
	type edge struct{ fromPort, fromVC, fromNode, toPort, toVC, toNode int }
	// Vertex: (node, outPort, vc). Edge when a packet holding one channel
	// requests the next.
	adj := map[[3]int][][3]int{}
	for src := 0; src < tor.Routers(); src++ {
		for dst := 0; dst < tor.Routers(); dst++ {
			if src == dst {
				continue
			}
			cur := topology.NodeID(src)
			var prev *[3]int
			for cur != topology.NodeID(dst) {
				c := AppendCandidates(nil, tor, DOR, cur, topology.NodeID(dst), 0, set2)[0]
				v := [3]int{int(cur), int(c.Port), int(c.VC)}
				if prev != nil {
					adj[*prev] = append(adj[*prev], v)
				}
				pv := v
				prev = &pv
				cur = tor.Neighbor(cur, topology.Direction(c.Port))
			}
		}
	}
	// Cycle detection via DFS colouring.
	color := map[[3]int]int{}
	var visit func(v [3]int) bool
	visit = func(v [3]int) bool {
		color[v] = 1
		for _, w := range adj[v] {
			switch color[w] {
			case 1:
				return false
			case 0:
				if !visit(w) {
					return false
				}
			}
		}
		color[v] = 2
		return true
	}
	for v := range adj {
		if color[v] == 0 && !visit(v) {
			t.Fatal("escape channel dependency graph has a cycle")
		}
	}
	var _ = edge{}
}

func TestDuatoCandidatesStructure(t *testing.T) {
	tor := topology.MustTorus([]int{8, 8}, 1)
	c := AppendCandidates(nil, tor, Duato, 0, 9, 0, set4) // (0,0)->(1,1): 2 minimal dirs
	// 2 adaptive VCs x 2 dirs + 1 escape = 5 candidates.
	if len(c) != 5 {
		t.Fatalf("got %d candidates, want 5", len(c))
	}
	// Escape candidate must be last and on an escape VC.
	last := c[len(c)-1]
	if last.VC != 0 && last.VC != 1 {
		t.Fatalf("last candidate VC %d is not an escape VC", last.VC)
	}
	for _, pv := range c[:len(c)-1] {
		if pv.VC != 2 && pv.VC != 3 {
			t.Fatalf("adaptive candidate on escape VC: %v", pv)
		}
	}
}

func TestTFARUsesAllVCs(t *testing.T) {
	tor := topology.MustTorus([]int{8, 8}, 1)
	set := VCSet{Adaptive: []int{0, 1, 2, 3}}
	c := AppendCandidates(nil, tor, TFAR, 0, 9, 0, set)
	if len(c) != 8 { // 4 VCs x 2 minimal dirs
		t.Fatalf("got %d candidates, want 8", len(c))
	}
	seen := map[int]bool{}
	for _, pv := range c {
		seen[int(pv.VC)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("TFAR uses %d distinct VCs, want 4", len(seen))
	}
}

func TestCandidatesAlwaysMinimal(t *testing.T) {
	tor := topology.MustTorus([]int{8, 8}, 1)
	rng := sim.NewRNG(5)
	for trial := 0; trial < 300; trial++ {
		src := topology.NodeID(rng.Intn(64))
		dst := topology.NodeID(rng.Intn(64))
		if src == dst {
			continue
		}
		for _, mode := range []Mode{DOR, Duato, TFAR} {
			set := set4
			if mode == TFAR {
				set = VCSet{Adaptive: []int{0, 1, 2, 3}}
			}
			for _, pv := range AppendCandidates(nil, tor, mode, src, dst, 0, set) {
				if _, ej := IsEject(tor, int(pv.Port)); ej {
					t.Fatalf("ejection candidate away from destination")
				}
				next := tor.Neighbor(src, topology.Direction(pv.Port))
				if tor.Distance(next, dst) != tor.Distance(src, dst)-1 {
					t.Fatalf("%v candidate %v is non-minimal (%d->%d)", mode, pv, src, dst)
				}
			}
		}
	}
}

func TestEjectPortRoundTrip(t *testing.T) {
	tor := topology.MustTorus([]int{4, 4}, 2)
	f := func(k uint8) bool {
		local := int(k) % tor.Bristling
		p := EjectPort(tor, local)
		got, ej := IsEject(tor, p)
		return ej && got == local
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if _, ej := IsEject(tor, 0); ej {
		t.Fatal("link port misidentified as ejection")
	}
}

func TestVCSetAll(t *testing.T) {
	all := set4.All()
	if len(all) != 4 {
		t.Fatalf("All returned %v", all)
	}
	// Adaptive first (allocation preference), escape last.
	if all[0] != 2 || all[1] != 3 || all[2] != 0 || all[3] != 1 {
		t.Fatalf("All order = %v", all)
	}
}

func TestModeStrings(t *testing.T) {
	if DOR.String() != "dor" || Duato.String() != "duato" || TFAR.String() != "tfar" {
		t.Fatal("mode strings wrong")
	}
}

func TestMeshDORUsesSingleEscape(t *testing.T) {
	m, err := topology.NewMesh([]int{4, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	single := VCSet{Escape: []int{0}}
	for src := 0; src < m.Routers(); src++ {
		for dst := 0; dst < m.Routers(); dst++ {
			if src == dst {
				continue
			}
			c := AppendCandidates(nil, m, DOR, topology.NodeID(src), topology.NodeID(dst), 0, single)
			if len(c) != 1 || c[0].VC != 0 || !c[0].Escape {
				t.Fatalf("mesh DOR candidates %v for %d->%d", c, src, dst)
			}
			// The hop must exist (no mesh-edge crossings under DOR).
			if !m.HasNeighbor(topology.NodeID(src), topology.Direction(c[0].Port)) {
				t.Fatalf("mesh DOR routed off the edge at %d->%d", src, dst)
			}
		}
	}
}

// TestMeshEscapeCDGAcyclic: dimension-order routing on a mesh is
// deadlock-free with a single escape VC (no datelines needed).
func TestMeshEscapeCDGAcyclic(t *testing.T) {
	m, _ := topology.NewMesh([]int{4, 4}, 1)
	single := VCSet{Escape: []int{0}}
	adj := map[[2]int][][2]int{}
	for src := 0; src < m.Routers(); src++ {
		for dst := 0; dst < m.Routers(); dst++ {
			if src == dst {
				continue
			}
			cur := topology.NodeID(src)
			var prev *[2]int
			for cur != topology.NodeID(dst) {
				c := AppendCandidates(nil, m, DOR, cur, topology.NodeID(dst), 0, single)[0]
				v := [2]int{int(cur), int(c.Port)}
				if prev != nil {
					adj[*prev] = append(adj[*prev], v)
				}
				pv := v
				prev = &pv
				cur = m.Neighbor(cur, topology.Direction(c.Port))
			}
		}
	}
	color := map[[2]int]int{}
	var visit func(v [2]int) bool
	visit = func(v [2]int) bool {
		color[v] = 1
		for _, w := range adj[v] {
			switch color[w] {
			case 1:
				return false
			case 0:
				if !visit(w) {
					return false
				}
			}
		}
		color[v] = 2
		return true
	}
	for v := range adj {
		if color[v] == 0 && !visit(v) {
			t.Fatal("mesh escape CDG has a cycle")
		}
	}
}
