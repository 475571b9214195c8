package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/fault"
	"repro/internal/protocol"
	"repro/internal/schemes"
)

// faultRates is the per-cycle worm-drop probability ladder for a scale. The
// zero entry is the resilience baseline: the token is still lost and
// regenerated, but no traffic is harmed, so delivered fraction must be 1.
func faultRates(s Scale) []float64 {
	switch s.Name {
	case "quick":
		return []float64{0, 0.0005, 0.002, 0.005}
	case "smoke":
		return []float64{0, 0.002}
	}
	return []float64{0, 0.0002, 0.0005, 0.001, 0.002, 0.005}
}

// FaultSweep measures resilience versus fault intensity: each point runs the
// PR scheme under PAT721 at a fixed sub-saturation load while one link turns
// flaky — dropping the worm it carries with the given per-cycle probability
// across the measurement window — and the Disha token is lost once
// mid-measurement. Delivered fraction quantifies the damage the drops cause;
// the token-outage and regeneration columns show the watchdog's recovery
// latency, which is independent of the drop rate. Every point carries its
// own deterministic fault plan, so the report is reproducible at any worker
// count.
func FaultSweep(ctx context.Context, w io.Writer, s Scale) error {
	rates := faultRates(s)
	fmt.Fprintf(w, "=== Delivered fraction & token recovery vs fault rate (PR/PAT721, scale=%s) ===\n", s.Name)
	fmt.Fprintf(w, "%10s %10s %10s %10s %10s %12s %8s\n",
		"fault-rate", "injected", "delivered", "del-frac", "lost-msgs", "tok-outage", "regens")
	rows, err := mapOrdered(ctx, Parallelism(), len(rates), func(i int) (string, error) {
		fr := rates[i]
		cfg := baseConfig(s)
		cfg.Scheme = schemes.PR
		cfg.Pattern = protocol.PAT721
		cfg.VCs = 4
		cfg.Rate = 0.008
		cfg.Seed = 33
		plan := &fault.Plan{Seed: 7}
		plan.Events = append(plan.Events, fault.Event{
			Kind: fault.TokenLoss, At: cfg.Warmup + cfg.Measure/4,
		})
		if fr > 0 {
			plan.Events = append(plan.Events, fault.Event{
				Kind: fault.LinkFlaky, At: cfg.Warmup,
				Until: cfg.Warmup + cfg.Measure,
				Rate:  fr, Drop: true,
			})
		}
		n, err := newNet(cfg)
		if err != nil {
			return "", err
		}
		inj, err := fault.Attach(n, plan)
		if err != nil {
			return "", err
		}
		if err := n.RunContext(ctx); err != nil {
			return "", err
		}
		rep := inj.Report()
		return fmt.Sprintf("%10.4f %10d %10d %10.4f %10d %12d %8d\n",
			fr, rep.InjectedMsgs, rep.DeliveredMsgs, rep.DeliveredFrac,
			rep.LostMsgs, rep.TokenOutageCycles, rep.TokenRegenerations), nil
	})
	if err != nil {
		return err
	}
	for _, row := range rows {
		fmt.Fprint(w, row)
	}
	return nil
}
