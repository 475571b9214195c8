package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/check"
	"repro/internal/netiface"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/schemes"
)

// Detector ablation: the paper's recovery schemes are triggered by a local
// persistence heuristic (T=25 cycles, matching the CWG detector's average
// detection time), but the trigger itself is a design axis. This sweep runs
// progressive recovery under both detectors the simulator implements — the
// endpoint threshold counter and the in-band distributed probe engine — and
// publishes the three quantities that separate them:
//
//   - detection latency: cycles from blocking onset to recovery dispatch;
//   - false positives: dispatches at instants where an independent knot
//     rebuild finds no true deadlock (the threshold heuristic is
//     deliberately conservative; edge chasing has a small stale-return
//     rate);
//   - bandwidth overhead: probes are real messages charged to the fabric
//     one flit per hop, while the threshold counter is free.
type detectorPoint struct {
	Throughput  float64
	Latency     float64
	DetectLat   float64
	DetectCount int64
	FalsePos    int64
	Rescues     int64
	ProbeFlits  int64
	Delivered   int64
}

// runDetectorPoint executes one (pattern, detector) cell. False positives
// are the dispatches check.JudgeDispatch finds no knot for: recovery that
// acted on congestion, not deadlock.
func runDetectorPoint(ctx context.Context, cfg network.Config) (detectorPoint, error) {
	n, err := newNet(cfg)
	if err != nil {
		return detectorPoint{}, err
	}
	var falsePos int64
	prev := n.OnDispatch
	n.OnDispatch = func(ni *netiface.NI, q int, now int64) {
		if _, noKnot := check.JudgeDispatch(n, ni, q); noKnot {
			falsePos++
		}
		if prev != nil {
			prev(ni, q, now)
		}
	}
	if err := n.RunContext(ctx); err != nil {
		return detectorPoint{}, err
	}
	st := n.Stats
	p := detectorPoint{
		Throughput:  st.Throughput(),
		Latency:     st.AvgLatency(),
		DetectLat:   st.AvgDetectLatency(),
		DetectCount: st.DetectLatencyCount,
		FalsePos:    falsePos,
		Rescues:     st.Rescues,
		Delivered:   st.DeliveredFlits,
	}
	if n.Probe != nil {
		p.ProbeFlits = n.Probe.FlitsCharged
	}
	return p, nil
}

// detectorCell is one (pattern, detector) cell of the detector table.
type detectorCell struct {
	pat      *protocol.Pattern
	rate     float64
	detector string
}

// detectorCells are the table's cells in print order: PR under the threshold
// and probe detectors on a 4-type coherence mix (PAT721) and on the
// forward-heavy 2/8/0 mix (PAT280) that stresses chained dependencies. Both
// points sit past the knee so blocking persists and every detector has
// something to find.
var detectorCells = []detectorCell{
	{protocol.PAT721, 0.020, network.DetectorThreshold},
	{protocol.PAT721, 0.020, network.DetectorProbe},
	{protocol.PAT280, 0.013, network.DetectorThreshold},
	{protocol.PAT280, 0.013, network.DetectorProbe},
}

// config is the cell's network at scale s.
func (c detectorCell) config(s Scale) network.Config {
	cfg := baseConfig(s)
	cfg.Scheme = schemes.PR
	cfg.Pattern = c.pat
	cfg.VCs = 4
	cfg.Rate = c.rate
	cfg.Detector = c.detector
	cfg.Seed = 41
	return cfg
}

// Detectors sweeps the recovery-trigger axis over detectorCells. Cells run
// concurrently; rows print in fixed order.
func Detectors(ctx context.Context, w io.Writer, s Scale) error {
	fmt.Fprintf(w, "=== Detector ablation (scale=%s) ===\n", s.Name)
	points, err := mapOrdered(ctx, Parallelism(), len(detectorCells), func(i int) (detectorPoint, error) {
		return runDetectorPoint(ctx, detectorCells[i].config(s))
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-8s %-10s %9s %9s %10s %8s %9s %8s %11s %9s\n",
		"pattern", "detector", "thruput", "latency", "detectlat", "fired", "falsepos", "rescue", "probeflits", "overhead")
	for i, c := range detectorCells {
		p := points[i]
		overhead := 0.0
		if p.Delivered > 0 {
			overhead = float64(p.ProbeFlits) / float64(p.Delivered) * 100
		}
		fmt.Fprintf(w, "%-8s %-10s %9.4f %9.1f %10.1f %8d %9d %8d %11d %8.2f%%\n",
			c.pat.Name, c.detector, p.Throughput, p.Latency, p.DetectLat, p.DetectCount,
			p.FalsePos, p.Rescues, p.ProbeFlits, overhead)
	}
	return nil
}
