package routing

import (
	"fmt"
	"testing"

	"repro/internal/fnv1a"
	"repro/internal/topology"
)

// pinnedShapes are the grids TestCandidateListsPinned tabulates: tori from
// the smallest (2×2, where both ways round a ring are one hop) to 8×8 and
// 4×4×4, an odd 5×3 torus with two interfaces per router, a 1-D ring of
// odd radix, and two- and three-dimensional meshes.
var pinnedShapes = []struct {
	radix     []int
	bristling int
	wrap      bool
	digest    uint64
}{
	{[]int{2, 2}, 1, true, 0xd0503d573ce2337d},
	{[]int{3, 3}, 1, true, 0xc71f8ac9e466a539},
	{[]int{4, 4}, 1, true, 0x78d0d0a36fa3bb61},
	{[]int{5, 3}, 2, true, 0x6c83e5bccdb84149},
	{[]int{8, 8}, 1, true, 0x87a6931b4dfb3095},
	{[]int{4, 4, 4}, 1, true, 0x4c06868b11411d7d},
	{[]int{7}, 1, true, 0xf69f04e6548bf015},
	{[]int{4, 4}, 1, false, 0xe2820f515f63ea35},
	{[]int{5, 3}, 1, false, 0x8a3bbc1acf8260cd},
	{[]int{3, 3, 3}, 1, false, 0x809fa123e31d25cd},
}

// pinnedMasks builds the link-health masks every shape is routed under: none
// at all, an all-alive mask, three scattered dead links, and a ring severed
// both ways at router 0 in dimension 0 (its +x and -x links), which parks DOR
// at router 0 and sends TFAR, whose only minimal ride crosses router 0, down
// its detour.
func pinnedMasks(t *topology.Torus) []*Health {
	scattered := NewHealth(t)
	for i := 0; i < 3; i++ {
		scattered.KillLink(topology.NodeID((5*i+1)%t.Routers()), topology.Direction((3*i)%t.Directions()))
	}
	severed := NewHealth(t)
	severed.KillLink(0, 0)
	severed.KillLink(0, 1)
	return []*Health{nil, NewHealth(t), scattered, severed}
}

// TestCandidateListsPinned pins the routing function's output: for each
// shape, one FNV-1a digest over the candidate list of every (mask, mode, VC
// set, source, destination, local interface). The VC sets are the escape
// channels alone, the escape channels with two adaptive ones, and, for TFAR
// only (DOR and Duato need an escape channel), four adaptive channels and no
// escape, the grant progressive recovery makes. Any change to a list, its
// order, or a candidate's port, VC or escape flag changes a digest.
func TestCandidateListsPinned(t *testing.T) {
	for _, s := range pinnedShapes {
		tor, err := topology.NewMesh(s.radix, s.bristling)
		if s.wrap {
			tor, err = topology.NewTorus(s.radix, s.bristling)
		}
		if err != nil {
			t.Fatal(err)
		}
		var esc []int
		for vc := 0; vc < tor.EscapeVCs(); vc++ {
			esc = append(esc, vc)
		}
		e := len(esc)
		sets := []VCSet{
			{Escape: esc},
			{Escape: esc, Adaptive: []int{e, e + 1}},
			{Adaptive: []int{0, 1, 2, 3}},
		}
		h := fnv1a.Offset
		var list []PortVC
		for _, mask := range pinnedMasks(tor) {
			for _, mode := range []Mode{DOR, Duato, TFAR} {
				for _, set := range sets {
					if len(set.Escape) == 0 && mode != TFAR {
						continue
					}
					for src := 0; src < tor.Routers(); src++ {
						for dst := 0; dst < tor.Routers(); dst++ {
							for local := 0; local < tor.Bristling; local++ {
								list = AppendCandidatesHealth(list[:0], mask, tor, mode,
									topology.NodeID(src), topology.NodeID(dst), local, set)
								h = fnv1a.Uint64(h, uint64(len(list)))
								for _, c := range list {
									w := uint64(c.Port) | uint64(c.VC)<<8
									if c.Escape {
										w |= 1 << 16
									}
									h = fnv1a.Uint64(h, w)
								}
							}
						}
					}
				}
			}
		}
		name := fmt.Sprintf("%v/b%d/wrap=%v", s.radix, s.bristling, s.wrap)
		if h != s.digest {
			t.Errorf("%s: candidate digest %#016x, pinned %#016x", name, h, s.digest)
		}
	}
}
