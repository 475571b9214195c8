package routing_test

import (
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
// mode, a packet position, and a VC grant, then checks every property the
// rest of the simulator relies on:
//
//   - Candidates and AppendCandidates (with a retained scratch) agree.
//   - At the destination router the only port offered is the ejection port of
//     the right local NI, adaptive VCs before escape VCs.
//   - Every link candidate is a minimal hop: the port is a real direction with
//     a neighbor, and taking it strictly decreases distance to the
//     destination.
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

		got := routing.Candidates(tor, mode, cur, dst, dstLocal, set)

		// Scratch reuse must be behaviour-preserving: this is the hot-path
		// entry point the routers actually use.
		scratch := make([]routing.PortVC, 2)
		app := routing.AppendCandidates(scratch[:0], tor, mode, cur, dst, dstLocal, set)
		if len(app) != len(got) {
			t.Fatalf("Candidates returned %d, AppendCandidates %d", len(got), len(app))
		}
		for i := range got {
			if got[i] != app[i] {
				t.Fatalf("candidate %d differs: %+v vs %+v", i, got[i], app[i])
			}
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
			if int(c.Port) >= tor.Directions() {
				t.Fatalf("candidate %d: port %d is not a link direction (topology has %d)",
					i, c.Port, tor.Directions())
			}
			dir := topology.Direction(c.Port)
			if !tor.HasNeighbor(cur, dir) {
				t.Fatalf("candidate %d: direction %v runs off the mesh edge at node %d", i, dir, cur)
			}
			if d := tor.Distance(tor.Neighbor(cur, dir), dst); d != base-1 {
				t.Fatalf("candidate %d: hop %v gives distance %d from %d, not minimal", i, dir, d, base)
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
