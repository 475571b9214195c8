package repro

import (
	"context"
	"fmt"
	"io"

	"repro/internal/experiments"
	"repro/internal/network"
	"repro/internal/stats"
)

// ExperimentScale selects run lengths for the experiment harness: "full"
// matches the paper's 30,000 measured cycles per point, "quick" is for
// interactive use, "smoke" for CI.
type ExperimentScale = experiments.Scale

// Canonical scales.
var (
	ScaleFull  = experiments.Full
	ScaleQuick = experiments.Quick
	ScaleSmoke = experiments.Smoke
)

func experimentsSweep(ctx context.Context, cfg network.Config, rates []float64, name string) (stats.Series, error) {
	return experiments.Sweep(ctx, cfg, rates, name)
}

// Experiment names accepted by RunExperiment.
var ExperimentNames = []string{
	"table1", "fig6", "traces", "fig8", "fig9", "fig10", "fig11", "dlfreq",
	"ablations", "utilization", "faultsweep", "detectors",
}

// RunExperiment regenerates one of the paper's tables or figures by name,
// writing a text report to w. Valid names are listed in ExperimentNames:
//
//	table1 — Table 1 response-type distributions (trace-driven MSI)
//	fig6   — Figure 6 load-rate distributions
//	traces — Section 4.2.2 trace-driven deadlock characterization
//	fig8   — Figure 8 latency/throughput at 4 VCs
//	fig9   — Figure 9 latency/throughput at 8 VCs
//	fig10  — Figure 10 latency/throughput at 16 VCs
//	fig11  — Figure 11 queue-allocation ablation
//	dlfreq — deadlock frequency vs load characterization
//	ablations — design-choice studies: detection threshold, token speed,
//	            SA channel sharing [21], 64 VCs, bristling, invalidation
//	            fanout, chain length
//	utilization — per-scheme channel utilization (the Section 2.1 argument)
//	faultsweep — delivered fraction and token-recovery latency vs fault rate
//	detectors — recovery-trigger ablation: threshold vs in-band probe
//	            engine (detection latency, false positives, overhead)
func RunExperiment(ctx context.Context, name string, scale ExperimentScale, w io.Writer) error {
	switch name {
	case "table1":
		return experiments.Table1(ctx, w, scale, 1)
	case "fig6":
		return experiments.Fig6(ctx, w, scale, 1)
	case "traces":
		return experiments.TraceDeadlocks(ctx, w, scale, 1)
	case "fig8":
		_, err := experiments.Fig8(ctx, w, scale)
		return err
	case "fig9":
		_, err := experiments.Fig9(ctx, w, scale)
		return err
	case "fig10":
		_, err := experiments.Fig10(ctx, w, scale)
		return err
	case "fig11":
		_, err := experiments.Fig11(ctx, w, scale)
		return err
	case "dlfreq":
		return experiments.DeadlockFrequency(ctx, w, scale)
	case "ablations":
		return experiments.Ablations(ctx, w, scale)
	case "utilization":
		return experiments.Utilization(ctx, w, scale)
	case "faultsweep":
		return experiments.FaultSweep(ctx, w, scale)
	case "detectors":
		return experiments.Detectors(ctx, w, scale)
	default:
		return fmt.Errorf("repro: unknown experiment %q (valid: %v)", name, ExperimentNames)
	}
}
