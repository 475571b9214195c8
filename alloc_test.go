package repro

// Allocation regression tests for the simulator hot path. The sweep runner's
// throughput scales with how cheap one Network.Step is; after warm-in every
// per-cycle structure (flits, packets, messages, transactions, candidate and
// arbitration scratch) is recycled, so steady-state stepping must not allocate.

import (
	"fmt"
	"testing"

	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/schemes"
)

// TestStepZeroAllocs pins the steady-state cost of Network.Step at zero
// allocations per cycle: an 8x8 torus under moderate load (PR, PAT271, rate
// 0.01), held in warmup so traffic keeps flowing, warmed long enough that
// every free list and scratch buffer has reached capacity. The CWG scan is
// switched off here, so this pins the scan-off path only;
// TestStepZeroAllocsWithScan pins the configuration users actually run.
func TestStepZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping allocation measurement in -short mode")
	}
	cfg := network.DefaultConfig()
	cfg.Scheme = schemes.PR
	cfg.Pattern = protocol.PAT271
	cfg.Rate = 0.01
	cfg.Warmup, cfg.Measure, cfg.MaxDrain = 1<<30, 1, 0 // stay in warmup
	cfg.CWGInterval = 0
	n, err := network.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.RunCycles(4000) // reach steady occupancy and saturate pools

	measureSteadyState(t, n)
}

// TestStepZeroAllocsProbeIdle re-pins the zero-alloc budget with the in-band
// probe detector attached but idle: at this load endpoints never cross the
// local-blocking threshold, so no probe launches, and an idle engine must
// cost the hot path nothing — its Step is gated out entirely while no probes
// are in flight. Like TestStepZeroAllocs it runs with the CWG scan off.
func TestStepZeroAllocsProbeIdle(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping allocation measurement in -short mode")
	}
	cfg := network.DefaultConfig()
	cfg.Scheme = schemes.PR
	cfg.Pattern = protocol.PAT271
	cfg.Rate = 0.01
	cfg.Warmup, cfg.Measure, cfg.MaxDrain = 1<<30, 1, 0 // stay in warmup
	cfg.CWGInterval = 0
	cfg.Detector = network.DetectorProbe
	n, err := network.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.RunCycles(4000) // reach steady occupancy and saturate pools
	if n.Probe == nil {
		t.Fatal("probe detector configured but engine not attached")
	}
	if !n.Probe.Idle() {
		t.Fatalf("probe engine not idle at this load (launched=%d in-flight=%d); the zero-alloc claim needs the idle path",
			n.Probe.Launched, n.Probe.InFlight())
	}
	measureSteadyState(t, n)
}

// TestStepZeroAllocsWithScan re-pins the budget with DefaultConfig's CWG scan
// (every 50 cycles) left on, as every CLI run and served spec has it: the
// scan works out of detector-owned scratch, so once that has grown to the
// largest blocked set the load produces, stepping through scans allocates
// nothing either — at the sparse rate, at the saturation knee, and under SA.
func TestStepZeroAllocsWithScan(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping allocation measurement in -short mode")
	}
	for _, c := range []struct {
		scheme schemes.Kind
		vcs    int
		rate   float64
	}{
		{schemes.PR, 4, 0.001},
		{schemes.PR, 4, 0.012},
		{schemes.SA, 8, 0.012},
	} {
		t.Run(fmt.Sprintf("%v@%dVC/rate%g", c.scheme, c.vcs, c.rate), func(t *testing.T) {
			cfg := network.DefaultConfig()
			cfg.Scheme, cfg.VCs, cfg.Rate = c.scheme, c.vcs, c.rate
			cfg.Pattern = protocol.PAT271
			cfg.Warmup, cfg.Measure, cfg.MaxDrain = 1<<30, 1, 0 // stay in warmup
			n, err := network.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			n.RunCycles(4000) // reach steady occupancy and saturate pools
			scans := n.Detector.Scans
			measureSteadyState(t, n)
			if n.Detector.Scans-scans < 40 {
				t.Fatalf("only %d scans ran during the measurement; the pin needs the scan on", n.Detector.Scans-scans)
			}
		})
	}
}

func measureSteadyState(t *testing.T, n *network.Network) {
	t.Helper()
	const cycles = 2000
	avg := testing.AllocsPerRun(cycles, func() { n.Step() })
	// Allow a vanishing residue (< 1 alloc per 100 cycles) for rare internal
	// map growth; any per-cycle allocation on the hot path trips this.
	if avg > 0.01 {
		t.Errorf("Network.Step allocated %.4f objects/cycle at steady state, want 0 (hot path regression)", avg)
	}
	t.Logf("Network.Step steady-state allocations: %.4f objects/cycle over %d cycles", avg, cycles)
}
