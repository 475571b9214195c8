package topology

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestNewTorusValidation(t *testing.T) {
	cases := []struct {
		radix     []int
		bristling int
		ok        bool
	}{
		{[]int{8, 8}, 1, true},
		{[]int{4, 4}, 4, true},
		{[]int{2, 4}, 2, true},
		{[]int{3}, 1, true},
		{[]int{}, 1, false},
		{[]int{8, 1}, 1, false},
		{[]int{0, 8}, 1, false},
		{[]int{8, 8}, 0, false},
	}
	for _, c := range cases {
		_, err := NewTorus(c.radix, c.bristling)
		if (err == nil) != c.ok {
			t.Errorf("NewTorus(%v,%d): err=%v, want ok=%v", c.radix, c.bristling, err, c.ok)
		}
	}
}

func TestCountsAndSizes(t *testing.T) {
	tor := MustTorus([]int{8, 8}, 1)
	if tor.Routers() != 64 || tor.Endpoints() != 64 || tor.Dims() != 2 || tor.Directions() != 4 {
		t.Fatalf("8x8: routers=%d endpoints=%d dims=%d dirs=%d", tor.Routers(), tor.Endpoints(), tor.Dims(), tor.Directions())
	}
	b := MustTorus([]int{2, 2}, 4)
	if b.Routers() != 4 || b.Endpoints() != 16 {
		t.Fatalf("2x2 bristled: routers=%d endpoints=%d", b.Routers(), b.Endpoints())
	}
}

func TestCoordsRoundTrip(t *testing.T) {
	tor := MustTorus([]int{4, 8, 3}, 1)
	for id := 0; id < tor.Routers(); id++ {
		c := tor.Coords(NodeID(id))
		if got := tor.Node(c); got != NodeID(id) {
			t.Fatalf("round trip %d -> %v -> %d", id, c, got)
		}
		for i := range c {
			if got := tor.Coord(NodeID(id), i); got != c[i] {
				t.Fatalf("Coord(%d, %d) = %d, Coords says %d", id, i, got, c[i])
			}
		}
	}
}

func TestNeighborInverse(t *testing.T) {
	tor := MustTorus([]int{4, 4}, 1)
	for id := 0; id < tor.Routers(); id++ {
		for d := Direction(0); d < Direction(tor.Directions()); d++ {
			n := tor.Neighbor(NodeID(id), d)
			back := tor.Neighbor(n, d.Opposite())
			if back != NodeID(id) {
				t.Fatalf("neighbor(%d,%v)=%d but reverse=%d", id, d, n, back)
			}
		}
	}
}

func TestNeighborWraps(t *testing.T) {
	tor := MustTorus([]int{4, 4}, 1)
	// Node 3 is (0,3); +y wraps to (0,0) = node 0.
	if n := tor.Neighbor(3, Direction(2)); n != 0 {
		t.Fatalf("wrap +dim1 from 3 = %d, want 0", n)
	}
	// Node 0 is (0,0); -x wraps to (3,0) = node 12.
	if n := tor.Neighbor(0, Direction(1)); n != 12 {
		t.Fatalf("wrap -dim0 from 0 = %d, want 12", n)
	}
}

func TestDeltaMinimality(t *testing.T) {
	tor := MustTorus([]int{8, 8}, 1)
	for _, pair := range [][2]NodeID{{0, 7}, {0, 36}, {5, 5}, {63, 0}} {
		d := tor.Delta(pair[0], pair[1])
		for i, v := range d {
			half := tor.Radix[i] / 2
			if v > half || v < -half {
				t.Fatalf("delta %v exceeds half radix for %v", d, pair)
			}
		}
	}
	// (0,0) to (0,7) on an 8-ring: minimal is -1 hop (wrap).
	d := tor.Delta(0, 7)
	if d[0] != 0 || d[1] != -1 {
		t.Fatalf("delta(0,7) = %v, want [0,-1]", d)
	}
}

func TestDistance(t *testing.T) {
	tor := MustTorus([]int{8, 8}, 1)
	cases := []struct {
		a, b NodeID
		want int
	}{
		{0, 0, 0}, {0, 1, 1}, {0, 7, 1}, {0, 4, 4}, {0, 36, 8}, {0, 63, 2},
	}
	for _, c := range cases {
		if got := tor.Distance(c.a, c.b); got != c.want {
			t.Errorf("Distance(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestDistanceSymmetric(t *testing.T) {
	tor := MustTorus([]int{4, 8}, 1)
	f := func(a, b uint8) bool {
		x := NodeID(int(a) % tor.Routers())
		y := NodeID(int(b) % tor.Routers())
		return tor.Distance(x, y) == tor.Distance(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMinimalDirectionsWalkReachesDestination(t *testing.T) {
	tor := MustTorus([]int{8, 8}, 1)
	rng := sim.NewRNG(17)
	for trial := 0; trial < 500; trial++ {
		src := NodeID(rng.Intn(tor.Routers()))
		dst := NodeID(rng.Intn(tor.Routers()))
		cur := src
		steps := 0
		for cur != dst {
			dirs := tor.MinimalDirections(cur, dst)
			if len(dirs) == 0 {
				t.Fatalf("no minimal direction from %d to %d", cur, dst)
			}
			next := tor.Neighbor(cur, dirs[rng.Intn(len(dirs))])
			if tor.Distance(next, dst) != tor.Distance(cur, dst)-1 {
				t.Fatalf("minimal direction did not reduce distance at %d -> %d", cur, next)
			}
			cur = next
			if steps++; steps > 64 {
				t.Fatalf("walk from %d to %d did not terminate", src, dst)
			}
		}
		if steps != tor.Distance(src, dst) {
			t.Fatalf("walk length %d != distance %d", steps, tor.Distance(src, dst))
		}
	}
}

func TestMinimalDirectionsEmptyAtDestination(t *testing.T) {
	tor := MustTorus([]int{4, 4}, 1)
	if dirs := tor.MinimalDirections(5, 5); len(dirs) != 0 {
		t.Fatalf("directions at destination: %v", dirs)
	}
}

func TestCrossesWrap(t *testing.T) {
	tor := MustTorus([]int{4, 4}, 1)
	// Node 12 = (3,0): +x crosses the wrap; -x does not.
	if !tor.CrossesWrap(12, Direction(0)) {
		t.Fatal("(3,0) +x should cross wrap")
	}
	if tor.CrossesWrap(12, Direction(1)) {
		t.Fatal("(3,0) -x should not cross wrap")
	}
	// Node 0 = (0,0): -x crosses, +x does not.
	if !tor.CrossesWrap(0, Direction(1)) {
		t.Fatal("(0,0) -x should cross wrap")
	}
	if tor.CrossesWrap(0, Direction(0)) {
		t.Fatal("(0,0) +x should not cross wrap")
	}
}

func TestWrapCrossingsPerRing(t *testing.T) {
	// Every unidirectional ring has exactly one wrap link.
	tor := MustTorus([]int{8, 8}, 1)
	for d := Direction(0); d < 4; d++ {
		count := 0
		for id := 0; id < tor.Routers(); id++ {
			if tor.CrossesWrap(NodeID(id), d) {
				count++
			}
		}
		if count != 8 { // 8 rings of 8 nodes in each direction of a 2D 8x8
			t.Fatalf("direction %v: %d wrap crossings, want 8", d, count)
		}
	}
}

func TestEndpointRoundTrip(t *testing.T) {
	tor := MustTorus([]int{2, 4}, 2)
	for id := 0; id < tor.Endpoints(); id++ {
		e := tor.EndpointByID(id)
		if tor.EndpointID(e) != id {
			t.Fatalf("endpoint round trip failed for %d", id)
		}
		if e.Local < 0 || e.Local >= tor.Bristling {
			t.Fatalf("endpoint %d local %d out of range", id, e.Local)
		}
	}
}

func TestRingNextToursAllRouters(t *testing.T) {
	tor := MustTorus([]int{4, 4}, 1)
	seen := make(map[NodeID]bool)
	cur := NodeID(0)
	for i := 0; i < tor.Routers(); i++ {
		if seen[cur] {
			t.Fatalf("ring revisited %d before completing tour", cur)
		}
		seen[cur] = true
		cur = tor.RingNext(cur)
	}
	if cur != 0 {
		t.Fatalf("ring did not return to origin: at %d", cur)
	}
}

func TestDirectionHelpers(t *testing.T) {
	d := Direction(5) // -y in dim 2
	if d.Plus() || d.Dim() != 2 || d.Opposite() != Direction(4) {
		t.Fatalf("direction helpers wrong for %v", d)
	}
	if Direction(0).String() != "+x" || Direction(3).String() != "-y" {
		t.Fatalf("direction strings: %q %q", Direction(0), Direction(3))
	}
}

func TestMeshTopology(t *testing.T) {
	m, err := NewMesh([]int{4, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Wrap {
		t.Fatal("mesh reports wrap")
	}
	if m.EscapeVCs() != 1 {
		t.Fatalf("mesh escape VCs = %d, want 1", m.EscapeVCs())
	}
	if MustTorus([]int{4, 4}, 1).EscapeVCs() != 2 {
		t.Fatal("torus escape VCs != 2")
	}
	// Corner (0,0): no -x, no -y neighbors.
	if m.HasNeighbor(0, Direction(1)) || m.HasNeighbor(0, Direction(3)) {
		t.Fatal("corner has edge-crossing neighbors")
	}
	if !m.HasNeighbor(0, Direction(0)) || !m.HasNeighbor(0, Direction(2)) {
		t.Fatal("corner lacks interior neighbors")
	}
	// Distances have no shortcuts: (0,0) to (0,3) is 3 hops, not 1.
	if d := m.Distance(0, 3); d != 3 {
		t.Fatalf("mesh distance = %d, want 3", d)
	}
	// Delta is the plain coordinate difference.
	d := m.Delta(3, 0)
	if d[0] != 0 || d[1] != -3 {
		t.Fatalf("mesh delta = %v", d)
	}
}

func TestMeshNeighborPanicsOffEdge(t *testing.T) {
	m, _ := NewMesh([]int{4, 4}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("hop off mesh edge did not panic")
		}
	}()
	m.Neighbor(0, Direction(1))
}

func TestMeshMinimalWalk(t *testing.T) {
	m, _ := NewMesh([]int{4, 4}, 1)
	rng := sim.NewRNG(3)
	for trial := 0; trial < 200; trial++ {
		src := NodeID(rng.Intn(m.Routers()))
		dst := NodeID(rng.Intn(m.Routers()))
		cur := src
		steps := 0
		for cur != dst {
			dirs := m.MinimalDirections(cur, dst)
			if len(dirs) == 0 {
				t.Fatalf("no direction from %d to %d", cur, dst)
			}
			next := m.Neighbor(cur, dirs[rng.Intn(len(dirs))])
			cur = next
			if steps++; steps > 16 {
				t.Fatal("walk too long")
			}
		}
		if steps != m.Distance(src, dst) {
			t.Fatalf("walk %d != distance %d", steps, m.Distance(src, dst))
		}
	}
}
