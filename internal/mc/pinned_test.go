package mc

import (
	"fmt"
	"testing"

	"repro/internal/network"
	"repro/internal/schemes"
)

// TestExhaustedSpacesPinned holds every space of EXPERIMENTS "Model checking
// the schemes" to its exact shape: distinct canonical states, transitions,
// accepting paths, detections and depth, each explored as its Spaces row
// says, which is what cmd/modelcheck runs, and then the recovery dispatches
// over all explored transitions and those check.JudgeDispatch found no knot
// for. No row may report unblocked-dispatch: every trigger is sound on every
// path. The states column is the partition
// the canonical state hash induces on reachable states, so a change to what
// the hash folds in — a field dropped, a timestamp no longer rebased, a
// sequence number folded raw — moves a row here, where the exhaustion tests
// would only log a different count. Entangled DR (3.6 s) is skipped under -short;
// entangled PR (173,068 states, 1,934,044 transitions, 87,812 accepting
// paths, 1,045 detections, depth 61, about 20 s) is pinned by the CI
// "Model-checker smoke" step, which runs `modelcheck -workload entangled
// -scheme PR` and matches that line.
func TestExhaustedSpacesPinned(t *testing.T) {
	for _, tc := range pinnedRows {
		t.Run(tc.String(), func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("3.6 s exploration")
			}
			e := tc.explorer(t)
			r := e.Run()
			if !r.Complete || r.Counterexample != nil {
				t.Fatalf("not exhausted clean: complete=%v counterexample=%+v", r.Complete, r.Counterexample)
			}
			got := shape{r.States, r.Transitions, r.Accepts, r.Detections, r.MaxDepth, r.Dispatches, r.NoKnotDispatches}
			if got != tc.want {
				t.Fatalf("states/transitions/accepts/detections/depth/dispatches/no-knot = %+v, pinned %+v", got, tc.want)
			}
		})
	}
}

// pinnedRow is one row of TestExhaustedSpacesPinned: a space, explored as its
// Spaces row says for one scheme and detector, and its exact shape.
type pinnedRow struct {
	workload string
	kind     schemes.Kind
	detector string
	long     bool // skipped under -short
	want     shape
}

type shape struct {
	states, transitions, accepts, detections int64
	depth                                    int
	dispatches, noKnot                       int64
}

const thr, prb = network.DetectorThreshold, network.DetectorProbe

var pinnedRows = []pinnedRow{
	{"single", schemes.SA, thr, false, shape{4, 74, 5, 0, 4, 0, 0}},
	{"single", schemes.DR, thr, false, shape{4, 99, 5, 0, 4, 0, 0}},
	{"single", schemes.PR, thr, false, shape{4, 74, 5, 0, 4, 0, 0}},
	{"crossing", schemes.SA, thr, false, shape{293, 1880, 302, 0, 9, 0, 0}},
	{"crossing", schemes.DR, thr, false, shape{46, 1019, 55, 0, 6, 0, 0}},
	{"crossing", schemes.PR, thr, false, shape{293, 1880, 302, 0, 9, 0, 0}},
	{"crossing", schemes.DR, prb, false, shape{46, 1019, 55, 0, 6, 0, 0}},
	{"crossing", schemes.PR, prb, false, shape{293, 1880, 302, 0, 9, 0, 0}},
	{"entangled", schemes.SA, thr, false, shape{1707, 72190, 1748, 843, 10, 950, 950}},
	{"entangled", schemes.DR, thr, true, shape{16476, 558240, 15947, 844, 15, 951, 951}},
	{"gridlock", schemes.DR, thr, false, shape{5, 960, 16, 28, 2, 32, 16}},
	{"gridlock", schemes.PR, thr, false, shape{5, 1000, 16, 24, 2, 32, 0}},
	{"gridlock", schemes.DR, prb, false, shape{5, 1136, 16, 28, 2, 32, 16}},
	{"gridlock", schemes.PR, prb, false, shape{5, 1192, 16, 24, 2, 32, 0}},
}

func (tc pinnedRow) String() string {
	return fmt.Sprintf("%s-%v-%s", tc.workload, tc.kind, tc.detector)
}

// explorer builds the row's explorer at its root state.
func (tc pinnedRow) explorer(t *testing.T) *Explorer {
	t.Helper()
	opt := spaceOptions(tc.workload, tc.kind)
	opt.Net.Detector = tc.detector
	e, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	return e
}
