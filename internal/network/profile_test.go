package network

import (
	"testing"

	"repro/internal/protocol"
	"repro/internal/schemes"
	"repro/internal/telemetry"
)

// TestProfilerAccountsCycleTime: with the profiler attached and sampling
// every cycle, the phase marks must account for at least 90% of the
// measured cycle wall time (the design makes it exactly 100% — the marks
// partition each sampled cycle).
func TestProfilerAccountsCycleTime(t *testing.T) {
	n := mustNet(t, smallConfig(schemes.PR, protocol.PAT271, 4, 0.02))
	p := telemetry.NewCycleProfiler(1)
	n.AttachProfiler(p)
	if n.prof != p {
		t.Fatal("profiler not attached")
	}
	n.Run()

	b := p.Breakdown()
	if b.Cycles == 0 || b.SampledCycles != b.Cycles {
		t.Fatalf("sampled %d of %d cycles, want all", b.SampledCycles, b.Cycles)
	}
	if b.MeasuredNs <= 0 {
		t.Fatal("no cycle time measured")
	}
	if b.AccountedFraction < 0.9 {
		t.Fatalf("phase marks account for %.1f%% of cycle time, want >= 90%%\n%s",
			100*b.AccountedFraction, b.Format())
	}
	// Every pipeline phase must have been visited and charged something
	// across thousands of cycles of a loaded network.
	byName := map[string]int64{}
	for _, ph := range b.Phases {
		byName[ph.Phase] = ph.Ns
	}
	for _, want := range []string{
		"source", "protocol/ni", "routing", "arbitration",
		"rescue", "credit/commit", "deadlock-scan", "obs",
	} {
		ns, ok := byName[want]
		if !ok {
			t.Errorf("phase %q missing from breakdown", want)
		} else if ns <= 0 {
			t.Errorf("phase %q charged no time over %d cycles", want, b.Cycles)
		}
	}
}

// TestProfilerSampledRun: a sampling profiler still covers the run and
// keeps the accounting guarantee on the cycles it samples.
func TestProfilerSampledRun(t *testing.T) {
	n := mustNet(t, smallConfig(schemes.PR, protocol.PAT100, 4, 0.01))
	p := telemetry.NewCycleProfiler(16)
	n.AttachProfiler(p)
	n.Run()
	b := p.Breakdown()
	if b.SampledCycles == 0 || b.SampledCycles >= b.Cycles {
		t.Fatalf("sampling broken: %d of %d cycles", b.SampledCycles, b.Cycles)
	}
	if b.AccountedFraction < 0.9 {
		t.Fatalf("sampled accounting %.1f%%, want >= 90%%", 100*b.AccountedFraction)
	}
}
