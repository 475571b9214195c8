package experiments

import (
	"bytes"
	"context"
	"io"
	"testing"

	"repro/internal/check"
	"repro/internal/network"
	"repro/internal/tracegen"
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

// TestTraceRunKeepsHookObservers: runTrace installs its Figure 6 load
// sampler after NetworkHook, and must chain what the hook attached, so a
// checker attached there (experiments -check) still sweeps the run.
func TestTraceRunKeepsHookObservers(t *testing.T) {
	var chk *check.Checker
	NetworkHook = func(n *network.Network) { chk = check.Attach(n, check.Options{}) }
	_, hist, err := runTrace(context.Background(), tracegen.Apps[0], Smoke, []int{4, 4}, 1, 1)
	NetworkHook = nil
	if err != nil {
		t.Fatal(err)
	}
	if chk.Checks() == 0 {
		t.Fatal("the checker attached by NetworkHook made no sweeps")
	}
	if err := chk.Err(); err != nil {
		t.Fatal(err)
	}
	if hist.Total == 0 {
		t.Fatal("the load sampler took no samples")
	}
}
