package experiments

import (
	"bytes"
	"context"
	"testing"
)

// TestFaultSweepGolden pins the fault sweep at smoke scale byte for byte:
// every point carries its own plan (seed 7) and network seed (33), so the
// report is the same at any worker count. A change to what a fault does to
// the engine — a dropped worm, a lost token, the regeneration watchdog —
// moves a line here. Regenerate with -update and say why.
func TestFaultSweepGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := FaultSweep(context.Background(), &buf, Smoke); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "faultsweep_smoke.golden", buf.Bytes())
}
