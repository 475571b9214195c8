package mc

import (
	"fmt"
	"testing"

	"repro/internal/network"
	"repro/internal/schemes"
)

// TestExhaustedSpacesPinned holds every space of EXPERIMENTS "Model checking
// the schemes" to its exact shape: distinct canonical states, transitions,
// accepting paths, detections and depth, with the options cmd/modelcheck
// gives each workload. The states column is the partition the canonical
// state hash induces on reachable states, so a change to what the hash folds
// in — a field dropped, a timestamp no longer rebased, a sequence number
// folded raw — moves a row here, where the exhaustion tests above would only
// log a different count. Entangled DR (3.6 s) is skipped under -short;
// entangled PR (173,068 states, 1,934,044 transitions, 87,812 accepting
// paths, 1,045 detections, depth 61, about 20 s) is re-run by hand with
// `modelcheck -workload entangled -scheme PR`.
func TestExhaustedSpacesPinned(t *testing.T) {
	type row struct {
		states, transitions, accepts, detections int64
		depth                                    int
	}
	wide := func(cfg network.Config, txns []TxnSpec, strict bool) Options {
		return Options{Net: cfg, Txns: txns, InjectWindow: 4, Rotations: 2, DelayRescue: true, StrictDetect: strict}
	}
	single := func(kind schemes.Kind, _ string) Options {
		cfg := TinyConfig(kind)
		return wide(cfg, SingleTxn(cfg), true)
	}
	crossing := func(kind schemes.Kind, det string) Options {
		cfg := TinyConfig(kind)
		cfg.Detector = det
		return wide(cfg, CrossingTxns(cfg), true)
	}
	entangled := func(kind schemes.Kind, _ string) Options {
		return wide(EntangledConfig(kind), EntangledTxns(), false)
	}
	gridlock := func(kind schemes.Kind, det string) Options {
		cfg := GridlockConfig(kind)
		cfg.Detector = det
		return Options{Net: cfg, Txns: EntangledTxns(), InjectWindow: 1, Rotations: 1}
	}
	const thr, prb = network.DetectorThreshold, network.DetectorProbe
	for _, tc := range []struct {
		workload string
		opts     func(schemes.Kind, string) Options
		kind     schemes.Kind
		detector string
		long     bool
		want     row
	}{
		{"single", single, schemes.SA, thr, false, row{4, 74, 5, 0, 4}},
		{"single", single, schemes.DR, thr, false, row{4, 99, 5, 0, 4}},
		{"single", single, schemes.PR, thr, false, row{4, 74, 5, 0, 4}},
		{"crossing", crossing, schemes.SA, thr, false, row{293, 1880, 302, 0, 9}},
		{"crossing", crossing, schemes.DR, thr, false, row{46, 1019, 55, 0, 6}},
		{"crossing", crossing, schemes.PR, thr, false, row{293, 1880, 302, 0, 9}},
		{"crossing", crossing, schemes.DR, prb, false, row{46, 1019, 55, 0, 6}},
		{"crossing", crossing, schemes.PR, prb, false, row{293, 1880, 302, 0, 9}},
		{"entangled", entangled, schemes.SA, thr, false, row{1707, 72190, 1748, 843, 10}},
		{"entangled", entangled, schemes.DR, thr, true, row{16476, 558240, 15947, 844, 15}},
		{"gridlock", gridlock, schemes.DR, thr, false, row{5, 960, 16, 28, 2}},
		{"gridlock", gridlock, schemes.PR, thr, false, row{5, 1000, 16, 24, 2}},
		{"gridlock", gridlock, schemes.DR, prb, false, row{5, 1136, 16, 28, 2}},
		{"gridlock", gridlock, schemes.PR, prb, false, row{5, 1192, 16, 24, 2}},
	} {
		t.Run(fmt.Sprintf("%s-%v-%s", tc.workload, tc.kind, tc.detector), func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("3.6 s exploration")
			}
			e, err := New(tc.opts(tc.kind, tc.detector))
			if err != nil {
				t.Fatal(err)
			}
			r := e.Run()
			if !r.Complete || r.Counterexample != nil {
				t.Fatalf("not exhausted clean: complete=%v counterexample=%+v", r.Complete, r.Counterexample)
			}
			if got := (row{r.States, r.Transitions, r.Accepts, r.Detections, r.MaxDepth}); got != tc.want {
				t.Fatalf("states/transitions/accepts/detections/depth = %+v, pinned %+v", got, tc.want)
			}
		})
	}
}
