package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/schemes"
	"repro/internal/stats"
)

// Utilization quantifies Section 2.1's resource-utilization argument: at the
// same applied load, strict avoidance's per-type channel partitions leave
// most virtual channels idle and concentrate traffic (high imbalance when
// the type mix is skewed), while progressive recovery's full sharing spreads
// load across every channel.
func Utilization(ctx context.Context, w io.Writer, s Scale) error {
	fmt.Fprintf(w, "=== Channel utilization by scheme (PAT721, 8 VCs, scale=%s) ===\n", s.Name)
	for _, kind := range []schemes.Kind{schemes.SA, schemes.DR, schemes.PR} {
		cfg := baseConfig(s)
		cfg.Scheme = kind
		cfg.Pattern = protocol.PAT721
		cfg.VCs = 8
		cfg.Rate = 0.010
		cfg.Seed = 41
		n, err := newNet(cfg)
		if err != nil {
			return err
		}
		util := attachUtilization(n)
		if err := n.RunContext(ctx); err != nil {
			return err
		}
		fmt.Fprint(w, util.Format(kind.String()))
	}
	return nil
}

// attachUtilization samples link-channel occupancy each measured cycle.
func attachUtilization(n *network.Network) *stats.Utilization {
	var links []*router.Channel
	for _, ch := range n.Channels {
		if ch.Kind == router.KindLink {
			links = append(links, ch)
		}
	}
	util := stats.NewUtilization(len(links), n.Cfg.VCs)
	start, end := n.Clock.MeasureWindow()
	occ := make([]bool, n.Cfg.VCs)
	prev := n.OnCycle
	n.OnCycle = func(now int64) {
		if prev != nil {
			prev(now)
		}
		if now < start || now >= end {
			return
		}
		util.Tick()
		for i, ch := range links {
			for v, vc := range ch.VCs {
				occ[v] = vc.Len() > 0
			}
			util.Sample(i, occ)
		}
	}
	return util
}
