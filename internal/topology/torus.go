// Package topology models k-ary n-cube (torus) interconnection networks: node
// coordinates, directional links with wraparound, minimal-path geometry, and
// bristling (multiple processing nodes sharing one router), exactly the
// network family used throughout the paper's evaluation (4x4 and 8x8
// bidirectional tori, bristling factors 1, 2, and 4).
package topology

import "fmt"

// NodeID identifies a router in the network, in row-major order over the
// torus coordinates.
type NodeID int

// Direction identifies one of the 2n unidirectional link directions of an
// n-dimensional torus: for dimension d, direction 2d is "plus" (increasing
// coordinate) and 2d+1 is "minus".
type Direction int

// Plus reports whether the direction increases its dimension's coordinate.
func (d Direction) Plus() bool { return d%2 == 0 }

// Dim returns the dimension this direction travels in.
func (d Direction) Dim() int { return int(d) / 2 }

// Opposite returns the reverse direction.
func (d Direction) Opposite() Direction { return d ^ 1 }

func (d Direction) String() string {
	sign := "+"
	if !d.Plus() {
		sign = "-"
	}
	return fmt.Sprintf("%s%c", sign, 'x'+rune(d.Dim()))
}

// Torus is a k-ary n-cube with per-dimension radices. Radix[i] is the number
// of routers along dimension i; the total router count is the product.
// Bristling is the number of processing nodes (network interfaces) attached
// to each router. With Wrap false the network is a mesh: the same grid
// without the wraparound links, which needs only a single escape virtual
// channel per logical network (no dateline discipline).
type Torus struct {
	Radix     []int
	Bristling int
	// Wrap selects torus (true) or mesh (false) edge semantics.
	Wrap    bool
	nodes   int
	strides []int
}

// NewTorus builds a torus with the given per-dimension radices and bristling
// factor; CheckGrid states what it accepts.
func NewTorus(radix []int, bristling int) (*Torus, error) {
	return newGrid(radix, bristling, true)
}

// NewMesh builds a mesh (the torus grid without wraparound links).
func NewMesh(radix []int, bristling int) (*Torus, error) {
	return newGrid(radix, bristling, false)
}

// CheckGrid reports whether NewTorus and NewMesh would accept the shape,
// without building it: at least one dimension, every radix >= 2 (a wraparound
// link to oneself is meaningless for deadlock analysis), bristling >= 1.
func CheckGrid(radix []int, bristling int) error {
	if len(radix) == 0 {
		return fmt.Errorf("topology: Radix needs at least one dimension")
	}
	for i, r := range radix {
		if r < 2 {
			return fmt.Errorf("topology: Radix dimension %d is %d, need >= 2", i, r)
		}
	}
	if bristling < 1 {
		return fmt.Errorf("topology: Bristling must be >= 1, got %d", bristling)
	}
	return nil
}

// EscapeVCs is Torus.EscapeVCs for a shape not yet built: the escape
// channels per logical network (E_r) a torus (wrap) or mesh needs.
func EscapeVCs(wrap bool) int {
	if wrap {
		return 2
	}
	return 1
}

func newGrid(radix []int, bristling int, wrap bool) (*Torus, error) {
	if err := CheckGrid(radix, bristling); err != nil {
		return nil, err
	}
	t := &Torus{Radix: append([]int(nil), radix...), Bristling: bristling, Wrap: wrap}
	t.nodes = 1
	t.strides = make([]int, len(radix))
	for i := len(radix) - 1; i >= 0; i-- {
		t.strides[i] = t.nodes
		t.nodes *= radix[i]
	}
	return t, nil
}

// MustTorus is NewTorus for statically-known-good parameters; it panics on
// error and exists for tests and example code.
func MustTorus(radix []int, bristling int) *Torus {
	t, err := NewTorus(radix, bristling)
	if err != nil {
		panic(err)
	}
	return t
}

// Dims returns the dimensionality n of the k-ary n-cube.
func (t *Torus) Dims() int { return len(t.Radix) }

// Routers returns the number of routers.
func (t *Torus) Routers() int { return t.nodes }

// Endpoints returns the number of processing nodes (router count times
// bristling factor).
func (t *Torus) Endpoints() int { return t.nodes * t.Bristling }

// Directions returns the number of unidirectional link directions per router
// (2 per dimension: full-duplex links are modelled as two opposite
// unidirectional channels).
func (t *Torus) Directions() int { return 2 * len(t.Radix) }

// Coords decomposes a router ID into per-dimension coordinates.
func (t *Torus) Coords(id NodeID) []int {
	c := make([]int, len(t.Radix))
	v := int(id)
	for i := range t.Radix {
		c[i] = v / t.strides[i]
		v %= t.strides[i]
	}
	return c
}

// Coord returns router id's coordinate in dimension i; unlike Coords it
// allocates nothing.
func (t *Torus) Coord(id NodeID, i int) int {
	return (int(id) / t.strides[i]) % t.Radix[i]
}

// Node composes per-dimension coordinates into a router ID.
func (t *Torus) Node(coords []int) NodeID {
	v := 0
	for i, c := range coords {
		v += ((c % t.Radix[i]) + t.Radix[i]) % t.Radix[i] * t.strides[i]
	}
	return NodeID(v)
}

// HasNeighbor reports whether a hop from id in dir stays inside the
// network; it is false only at mesh edges.
func (t *Torus) HasNeighbor(id NodeID, dir Direction) bool {
	if t.Wrap {
		return true
	}
	return !t.CrossesWrap(id, dir)
}

// Neighbor returns the router reached by travelling one hop in dir. It
// panics on a hop off a mesh edge (use HasNeighbor to guard).
func (t *Torus) Neighbor(id NodeID, dir Direction) NodeID {
	if !t.HasNeighbor(id, dir) {
		panic(fmt.Sprintf("topology: hop off mesh edge: %d %v", id, dir))
	}
	dim := dir.Dim()
	k := t.Radix[dim]
	coord := (int(id) / t.strides[dim]) % k
	var next int
	if dir.Plus() {
		next = (coord + 1) % k
	} else {
		next = (coord - 1 + k) % k
	}
	return NodeID(int(id) + (next-coord)*t.strides[dim])
}

// DeltaDim returns the signed minimal hop count from src to dst in dimension
// i alone, preferring the plus direction on ties (k even and distance exactly
// k/2). A positive value means travel in the plus direction. Unlike Delta it
// allocates nothing, so the per-cycle routing stage can call it freely.
func (t *Torus) DeltaDim(src, dst NodeID, i int) int {
	k := t.Radix[i]
	sc := (int(src) / t.strides[i]) % k
	dc := (int(dst) / t.strides[i]) % k
	if !t.Wrap {
		return dc - sc
	}
	fwd := ((dc - sc) + k) % k
	if fwd <= k-fwd {
		return fwd
	}
	return fwd - k
}

// Delta returns, for each dimension, the signed minimal hop count from src to
// dst. A positive entry means travel in the plus direction.
func (t *Torus) Delta(src, dst NodeID) []int {
	d := make([]int, len(t.Radix))
	for i := range t.Radix {
		d[i] = t.DeltaDim(src, dst, i)
	}
	return d
}

// Distance returns the minimal hop count between two routers.
func (t *Torus) Distance(src, dst NodeID) int {
	total := 0
	for i := range t.Radix {
		if d := t.DeltaDim(src, dst, i); d < 0 {
			total -= d
		} else {
			total += d
		}
	}
	return total
}

// MinimalDirections returns the link directions that lie on some minimal path
// from src to dst. It is empty when src == dst.
func (t *Torus) MinimalDirections(src, dst NodeID) []Direction {
	var dirs []Direction
	for i := range t.Radix {
		switch d := t.DeltaDim(src, dst, i); {
		case d > 0:
			dirs = append(dirs, Direction(2*i))
		case d < 0:
			dirs = append(dirs, Direction(2*i+1))
		}
	}
	return dirs
}

// CrossesWrap reports whether one hop from id in dir uses the wraparound link
// of its dimension (the hop from coordinate k-1 to 0 in the plus direction or
// 0 to k-1 in the minus direction). Wrap crossings are what force the
// Dally-Seitz two-virtual-channel discipline on torus escape paths.
func (t *Torus) CrossesWrap(id NodeID, dir Direction) bool {
	// For a mesh this identifies the edge hops that do not exist.
	dim := dir.Dim()
	k := t.Radix[dim]
	coord := (int(id) / t.strides[dim]) % k
	if dir.Plus() {
		return coord == k-1
	}
	return coord == 0
}

// Endpoint identifies a processing node: the router it hangs off and its
// local index within the router's bristle group.
type Endpoint struct {
	Router NodeID
	Local  int
}

// EndpointID flattens an endpoint to a dense index in [0, Endpoints()).
func (t *Torus) EndpointID(e Endpoint) int {
	return int(e.Router)*t.Bristling + e.Local
}

// EndpointByID inverts EndpointID.
func (t *Torus) EndpointByID(id int) Endpoint {
	return Endpoint{Router: NodeID(id / t.Bristling), Local: id % t.Bristling}
}

// RingNext returns the successor of router id on the canonical embedded ring
// used by the circulating Disha token: routers are visited in ID order and
// wrap from the last back to zero. The paper leaves the token path
// configurable ("logical and, thus, configurable"); the canonical ring is the
// simplest complete tour.
func (t *Torus) RingNext(id NodeID) NodeID {
	return NodeID((int(id) + 1) % t.nodes)
}

// EscapeVCs returns the number of escape virtual channels a deadlock-free
// dimension-order escape subnetwork needs on this topology: two for a torus
// (the Dally-Seitz dateline pair) and one for a mesh (no wraparound links,
// hence no datelines), the paper's E_r parameter.
func (t *Torus) EscapeVCs() int { return EscapeVCs(t.Wrap) }
