package routing_test

import (
	"slices"
	"testing"

	"repro/internal/routing"
	"repro/internal/topology"
)

// fuzzReader dispenses decision bytes from the fuzz input, yielding zero once
// exhausted so every input decodes to a valid scenario.
type fuzzReader struct {
	data []byte
	pos  int
}

func (r *fuzzReader) byte() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func (r *fuzzReader) intn(n int) int {
	if n <= 1 {
		return 0
	}
	return int(r.byte()) % n
}

// FuzzCandidates decodes an arbitrary byte string into a topology, a routing
// mode, a packet position, a VC grant and, last, a dead-link mask, then
// checks every property the rest of the simulator relies on. Under any mask:
//
//   - A fresh nil slice and a retained scratch give the same list.
//   - The list fits MaxCandidates.
//   - Every link candidate's first hop is a real direction with a neighbor
//     and a live link.
//
// Under an empty mask, which every input that runs out before the mask
// decodes to (so each seed below tests what it was written for):
//
//   - The list is the one a nil mask (every link alive) gives.
//   - At the destination router the only port offered is the ejection port of
//     the right local NI, adaptive VCs before escape VCs.
//   - Every link candidate is a minimal hop: taking it strictly decreases
//     distance to the destination.
//   - DOR yields exactly one candidate, flagged Escape, on an escape VC (the
//     single escape VC on a mesh, where there are no datelines).
//   - Duato yields one candidate per (adaptive VC, minimal direction) followed
//     by exactly one escape candidate, last.
//   - TFAR yields one candidate per (VC, minimal direction) with no Escape
//     flags — every VC is unrestricted, by definition.
func FuzzCandidates(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 1, 0, 0, 5, 9, 0, 2})
	f.Add([]byte{0, 3, 0, 1, 1, 0, 2, 0, 3})
	f.Add([]byte{1, 1, 2, 0, 1, 2, 7, 7, 1, 2})
	f.Add([]byte{1, 3, 3, 1, 0, 0, 4, 4, 0, 0})
	// A ring of 5 with router 0's -x link dead: TFAR from 1 to 4 has no live
	// minimal ride and detours the long way; DOR from 0 to 2 with both of
	// router 0's links dead parks.
	f.Add([]byte{0, 3, 0, 0, 2, 1, 4, 0, 0x00, 0x80})
	f.Add([]byte{0, 3, 0, 0, 0, 0, 2, 0, 0x80, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		dims := 1 + r.intn(2)
		radix := make([]int, dims)
		for i := range radix {
			radix[i] = 2 + r.intn(4)
		}
		wrap := r.byte()%2 == 0
		bristling := 1 + r.intn(2)
		var (
			tor *topology.Torus
			err error
		)
		if wrap {
			tor, err = topology.NewTorus(radix, bristling)
		} else {
			tor, err = topology.NewMesh(radix, bristling)
		}
		if err != nil {
			t.Skip() // decoded an invalid grid (e.g. radix-2 ring)
		}
		mode := routing.Mode(r.intn(3))
		cur := topology.NodeID(r.intn(tor.Routers()))
		dst := topology.NodeID(r.intn(tor.Routers()))
		dstLocal := r.intn(bristling)

		set := routing.VCSet{}
		for i := 0; i < tor.EscapeVCs(); i++ {
			set.Escape = append(set.Escape, i)
		}
		nA := r.intn(4)
		for i := 0; i < nA; i++ {
			set.Adaptive = append(set.Adaptive, tor.EscapeVCs()+i)
		}

		// The mask: one byte per link, router-major in direction order, the
		// link dead when the byte's high bit is set.
		h := routing.NewHealth(tor)
		for node := 0; node < tor.Routers(); node++ {
			for dir := 0; dir < tor.Directions(); dir++ {
				if r.byte()&0x80 != 0 {
					h.KillLink(topology.NodeID(node), topology.Direction(dir))
				}
			}
		}

		got := routing.AppendCandidatesHealth(nil, h, tor, mode, cur, dst, dstLocal, set)

		// Scratch reuse must be behaviour-preserving: a network fills its
		// candidate table by appending to one retained slab.
		scratch := make([]routing.PortVC, 2)
		app := routing.AppendCandidatesHealth(scratch[:0], h, tor, mode, cur, dst, dstLocal, set)
		if !slices.Equal(app, got) {
			t.Fatalf("appended to a nil slice %v, to a retained scratch %v", got, app)
		}
		atDst, routed := routing.MaxCandidates(tor, mode, set)
		if bound := map[bool]int{true: atDst, false: routed}[cur == dst]; len(got) > bound {
			t.Fatalf("%d candidates, MaxCandidates says at most %d", len(got), bound)
		}
		for i, c := range got {
			if cur == dst {
				break // every candidate ejects there; checked below
			}
			if int(c.Port) >= tor.Directions() {
				t.Fatalf("candidate %d: port %d is not a link direction (topology has %d)",
					i, c.Port, tor.Directions())
			}
			dir := topology.Direction(c.Port)
			if !tor.HasNeighbor(cur, dir) {
				t.Fatalf("candidate %d: direction %v runs off the mesh edge at node %d", i, dir, cur)
			}
			if h.LinkDead(cur, dir) {
				t.Fatalf("candidate %d: first hop %v out of node %d is dead (%v)", i, dir, cur, h)
			}
		}
		if h.DeadLinks() > 0 {
			return
		}
		if want := routing.AppendCandidates(nil, tor, mode, cur, dst, dstLocal, set); !slices.Equal(got, want) {
			t.Fatalf("an all-alive mask gives %v, a nil mask %v", got, want)
		}

		if cur == dst {
			want := len(set.Adaptive) + len(set.Escape)
			if len(got) != want {
				t.Fatalf("at destination: %d candidates, want %d (one per granted VC)", len(got), want)
			}
			all := set.All()
			for i, c := range got {
				if int(c.Port) != routing.EjectPort(tor, dstLocal) {
					t.Fatalf("at destination: candidate %d routes to port %d, want eject port %d",
						i, c.Port, routing.EjectPort(tor, dstLocal))
				}
				if int(c.VC) != all[i] {
					t.Fatalf("at destination: candidate %d on VC %d, want %d (adaptive before escape)",
						i, c.VC, all[i])
				}
			}
			return
		}

		// Every link candidate must be a productive minimal hop.
		base := tor.Distance(cur, dst)
		for i, c := range got {
			next := tor.Neighbor(cur, topology.Direction(c.Port))
			if d := tor.Distance(next, dst); d != base-1 {
				t.Fatalf("candidate %d: hop %v gives distance %d from %d, not minimal", i, c.Port, d, base)
			}
		}

		minDirs := len(tor.MinimalDirections(cur, dst))
		switch mode {
		case routing.DOR:
			if len(got) != 1 {
				t.Fatalf("DOR produced %d candidates, want exactly 1", len(got))
			}
			c := got[0]
			if !c.Escape {
				t.Fatal("DOR candidate not flagged Escape")
			}
			onEscape := false
			for _, vc := range set.Escape {
				onEscape = onEscape || int(c.VC) == vc
			}
			if !onEscape {
				t.Fatalf("DOR candidate on VC %d, not in escape set %v", c.VC, set.Escape)
			}
			if !tor.Wrap && int(c.VC) != set.Escape[0] {
				t.Fatalf("mesh DOR on VC %d; a mesh has no datelines and must use Escape[0]=%d",
					c.VC, set.Escape[0])
			}
		case routing.Duato:
			if want := minDirs*len(set.Adaptive) + 1; len(got) != want {
				t.Fatalf("Duato produced %d candidates, want %d (%d dirs × %d adaptive + escape)",
					len(got), want, minDirs, len(set.Adaptive))
			}
			for i, c := range got[:len(got)-1] {
				if c.Escape {
					t.Fatalf("Duato adaptive candidate %d flagged Escape", i)
				}
			}
			if !got[len(got)-1].Escape {
				t.Fatal("Duato's guaranteed escape candidate is missing or not last")
			}
		case routing.TFAR:
			if want := minDirs * (len(set.Adaptive) + len(set.Escape)); len(got) != want {
				t.Fatalf("TFAR produced %d candidates, want %d (%d dirs × %d VCs)",
					len(got), want, minDirs, len(set.Adaptive)+len(set.Escape))
			}
			for i, c := range got {
				if c.Escape {
					t.Fatalf("TFAR candidate %d flagged Escape; TFAR has no restricted channels", i)
				}
			}
		}
	})
}
