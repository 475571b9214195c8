package repro

import (
	"context"
	"io"

	"repro/internal/experiments"
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

// ExperimentNames lists the names RunExperiment accepts, in the order of the
// experiment table (internal/experiments.All, which describes each one).
var ExperimentNames = experiments.Names()

// RunExperiment regenerates one of the paper's tables or figures by name,
// writing a text report to w. Valid names are listed in ExperimentNames.
func RunExperiment(ctx context.Context, name string, scale ExperimentScale, w io.Writer) error {
	e, err := experiments.ByName(name)
	if err != nil {
		return err
	}
	_, err = e.Run(ctx, w, scale)
	return err
}
