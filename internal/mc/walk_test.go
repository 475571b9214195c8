package mc

import (
	"math/rand/v2"
	"testing"

	"repro/internal/network"
)

// TestPerArbiterWalks measures what "exhausted" leaves out. The explorer's one
// arbitration choice (Choice.Rot) rotates every round-robin cursor in the
// system by the same k, so a pinned row is exhaustive only against arbiters
// that move in lockstep. Each row of TestExhaustedSpacesPinned whose space
// branches on arbitration (Rotations > 1) is exhausted for its visited set,
// then walked 3,000 times from its root on seeded random schedules: at each
// branch point one enumerated choice with Rot 0, and where the explorer would
// have branched on Rot, every router and NI rotated by its own k in
// [0, Rotations) instead. Any violation stepOnce or classifyStuck reports
// fails the test, naming the seed. The share of branch visits outside the
// visited set is logged, not pinned: ROADMAP item 2(a) measured 31.1%
// (crossing SA and PR), 5.3% (crossing DR), 17.9% (entangled SA) and 43.7%
// (entangled DR). About 13 s, 8 s under -short.
func TestPerArbiterWalks(t *testing.T) {
	const walks = 3000
	for _, tc := range pinnedRows {
		t.Run(tc.String(), func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("3.6 s exploration")
			}
			e := tc.explorer(t)
			rots := e.opt.Rotations
			if rots < 2 {
				t.Skipf("Rotations %d: the space branches on no arbitration, so there is no lockstep model to leave", rots)
			}
			root := e.n.Snapshot()
			if r := e.Run(); !r.Complete || r.Counterexample != nil {
				t.Fatalf("not exhausted clean: complete=%v counterexample=%+v", r.Complete, r.Counterexample)
			}
			var branches, outside int
			for seed := uint64(1); seed <= walks; seed++ {
				b, o, v := e.walk(root, rand.New(rand.NewPCG(seed, 0)), rots)
				if v != nil {
					t.Fatalf("seed %d: %s at cycle %d: %s", seed, v.Kind, v.Cycle, v.Detail)
				}
				branches, outside = branches+b, outside+o
			}
			t.Logf("%d walks: %d of %d branch visits (%.1f%%) outside the %d-state visited set",
				walks, outside, branches, 100*float64(outside)/float64(max(branches, 1)), len(e.visited))
		})
	}
}

// walk runs one path from root to acceptance under per-arbiter rotation,
// counting its branch visits and those whose state the exhaustive run never
// visited, and returns the first violation.
func (e *Explorer) walk(root *network.Snapshot, rng *rand.Rand, rots int) (branches, outside int, v *Violation) {
	e.n.Restore(root)
	pm := pathMeta{knotCycle: -1}
	for !e.accepted() {
		if e.n.Clock.Now() >= e.opt.MaxCycles {
			return branches, outside, e.classifyStuck(&pm)
		}
		cs := e.enumerate()
		c := cs[0]
		if len(cs) > 1 {
			branches++
			if _, seen := e.visited[e.stateHash()]; !seen {
				outside++
			}
			var unrotated []Choice
			for _, c := range cs {
				if c.Rot == 0 {
					unrotated = append(unrotated, c)
				}
			}
			c = unrotated[rng.IntN(len(unrotated))]
			if len(unrotated) < len(cs) { // an arbitration branch point
				for _, r := range e.n.Routers {
					r.RotateArb(rng.IntN(rots))
				}
				for _, ni := range e.n.NIs {
					ni.RotateArb(rng.IntN(rots))
				}
			}
		}
		if v := e.stepOnce(c, &pm); v != nil {
			return branches, outside, v
		}
	}
	return branches, outside, nil
}
