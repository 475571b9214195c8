package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"

	"repro/internal/stats"
)

// Experiment is one entry of the experiment table: the name the command line
// and repro.RunExperiment accept, a one-line description for usage text, and
// the run. Run writes the text report to w and returns the figure's series
// for the BNF figures (what `experiments -csv` writes), nil otherwise.
type Experiment struct {
	Name, Doc string
	Run       func(ctx context.Context, w io.Writer, s Scale) ([]stats.Series, error)
}

// All is the experiment table, in the order `experiments all` runs it.
var All = []Experiment{
	{"table1", "Table 1: response-type distribution per Splash-2 application (trace-driven MSI)", seeded(Table1)},
	{"fig6", "Figure 6: load-rate distributions of the applications", seeded(Fig6)},
	{"traces", "Section 4.2.2: trace-driven deadlock characterization (plain and bristled tori)", seeded(TraceDeadlocks)},
	{"fig8", "Figure 8: latency/throughput at 4 VCs, PAT100-PAT280", Fig8},
	{"fig9", "Figure 9: latency/throughput at 8 VCs", Fig9},
	{"fig10", "Figure 10: latency/throughput at 16 VCs", Fig10},
	{"fig11", "Figure 11: queue-allocation ablation (QA vs shared)", Fig11},
	{"dlfreq", "deadlock frequency vs load (Sections 4.1 and 4.3)", report(DeadlockFrequency)},
	{"ablations", "design-choice studies: detection threshold, token speed, SA channel sharing, VCs, bristling, fanout, chain length", report(Ablations)},
	{"utilization", "per-scheme channel utilization (the Section 2.1 argument)", report(Utilization)},
	{"faultsweep", "delivered fraction and token-recovery latency vs fault rate", report(FaultSweep)},
	{"detectors", "recovery-trigger ablation: threshold vs in-band probe (latency, false positives, overhead)", report(Detectors)},
}

// Names lists the names of All, in order.
func Names() []string {
	names := make([]string, len(All))
	for i, e := range All {
		names[i] = e.Name
	}
	return names
}

// ByName looks an experiment up in All.
func ByName(name string) (Experiment, error) {
	for _, e := range All {
		if e.Name == name {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (valid: %s)", name, strings.Join(Names(), ", "))
}

// report adapts an experiment that has no series to the table's run.
func report(run func(context.Context, io.Writer, Scale) error) func(context.Context, io.Writer, Scale) ([]stats.Series, error) {
	return func(ctx context.Context, w io.Writer, s Scale) ([]stats.Series, error) {
		return nil, run(ctx, w, s)
	}
}

// seeded adapts a trace-driven experiment, run at seed 1, to the table's run.
func seeded(run func(context.Context, io.Writer, Scale, uint64) error) func(context.Context, io.Writer, Scale) ([]stats.Series, error) {
	return report(func(ctx context.Context, w io.Writer, s Scale) error { return run(ctx, w, s, 1) })
}
