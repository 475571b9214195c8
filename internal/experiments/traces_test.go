package experiments

import (
	"bytes"
	"context"
	"io"
	"testing"
)

// TestTraceExperimentsGolden pins the three trace-driven experiments at smoke
// scale byte for byte, run serially at the seed RunExperiment uses. Table 1
// reads only the generator; Figure 6 and the Section 4.2.2 table replay its
// traces through the MSI player on a network, so a change to the generator's
// seed, the trace length or the Section 4.2.1 detector settings moves a line
// here. Regenerate with -update and say why.
func TestTraceExperimentsGolden(t *testing.T) {
	defer SetParallelism(Parallelism())
	SetParallelism(1)
	for _, tc := range []struct {
		name string
		run  func(context.Context, io.Writer, Scale, uint64) error
	}{
		{"table1", Table1},
		{"fig6", Fig6},
		{"traces", TraceDeadlocks},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tc.run(context.Background(), &buf, Smoke, 1); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, tc.name+"_smoke.golden", buf.Bytes())
		})
	}
}
