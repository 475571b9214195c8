package telemetry

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// spin busy-waits ~d so phase marks have something real to attribute;
// time.Sleep would work too but is far less precise at microsecond scale.
func spin(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

func TestProfilerAttribution(t *testing.T) {
	p := NewCycleProfiler(1)
	for i := 0; i < 10; i++ {
		p.BeginCycle()
		spin(50 * time.Microsecond)
		p.Mark(PhaseSource)
		spin(200 * time.Microsecond)
		p.Mark(PhaseRouting)
		spin(100 * time.Microsecond)
		p.Mark(PhaseArbitration)
		p.EndCycle()
	}
	b := p.Breakdown()
	if b.Cycles != 10 || b.SampledCycles != 10 {
		t.Fatalf("cycles %d sampled %d, want 10/10", b.Cycles, b.SampledCycles)
	}
	// Marks partition the cycle, so accounting is exact by construction.
	if b.AccountedNs != b.MeasuredNs {
		t.Errorf("accounted %d != measured %d", b.AccountedNs, b.MeasuredNs)
	}
	if b.AccountedFraction != 1 {
		t.Errorf("accounted fraction %v, want 1", b.AccountedFraction)
	}
	// Phases sorted by descending cost: routing (200µs) beats arbitration
	// (100µs) beats source (50µs).
	if b.Phases[0].Phase != "routing" {
		t.Errorf("heaviest phase %q, want routing\n%+v", b.Phases[0].Phase, b.Phases)
	}
	byName := map[string]int64{}
	for _, ph := range b.Phases {
		byName[ph.Phase] = ph.Ns
	}
	if byName["routing"] <= byName["arbitration"] || byName["arbitration"] <= byName["source"] {
		t.Errorf("phase ordering wrong: %v", byName)
	}
	if byName["routing"] < int64(10*150*time.Microsecond) {
		t.Errorf("routing undercounted: %v", byName["routing"])
	}
}

func TestProfilerSampling(t *testing.T) {
	p := NewCycleProfiler(4)
	for i := 0; i < 10; i++ {
		p.BeginCycle()
		p.Mark(PhaseSource)
		p.EndCycle()
	}
	b := p.Breakdown()
	if b.Cycles != 10 {
		t.Errorf("cycles %d, want 10", b.Cycles)
	}
	// Cycles 1, 5, 9 are sampled (first cycle always is).
	if b.SampledCycles != 3 {
		t.Errorf("sampled %d, want 3", b.SampledCycles)
	}
	if b.SampleEvery != 4 {
		t.Errorf("sample every %d, want 4", b.SampleEvery)
	}
}

// TestProfilerUnsampledCyclesFree: marks on unsampled cycles charge nothing.
func TestProfilerUnsampledCyclesFree(t *testing.T) {
	p := NewCycleProfiler(1000)
	p.BeginCycle() // sampled
	p.Mark(PhaseSource)
	p.EndCycle()
	before := p.Breakdown().AccountedNs
	for i := 0; i < 5; i++ { // all unsampled
		p.BeginCycle()
		spin(100 * time.Microsecond)
		p.Mark(PhaseSource)
		p.EndCycle()
	}
	if after := p.Breakdown().AccountedNs; after != before {
		t.Errorf("unsampled cycles charged time: %d -> %d", before, after)
	}
}

func TestBreakdownFormatAndJSON(t *testing.T) {
	p := NewCycleProfiler(1)
	p.BeginCycle()
	spin(20 * time.Microsecond)
	p.Mark(PhaseDeadlock)
	p.EndCycle()
	b := p.Breakdown()

	out := b.Format()
	for _, want := range []string{"cycle profile:", "deadlock-scan", "ns/cycle", "% accounted"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format() missing %q:\n%s", want, out)
		}
	}

	raw, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	var round Breakdown
	if err := json.Unmarshal(raw, &round); err != nil {
		t.Fatal(err)
	}
	if round.MeasuredNs != b.MeasuredNs || len(round.Phases) != len(b.Phases) {
		t.Errorf("breakdown did not round-trip: %+v vs %+v", round, b)
	}
}

func TestPhaseString(t *testing.T) {
	if PhaseRouting.String() != "routing" || PhaseObs.String() != "obs" {
		t.Errorf("phase names wrong: %s %s", PhaseRouting, PhaseObs)
	}
	if got := Phase(200).String(); got != "phase(200)" {
		t.Errorf("out-of-range phase: %q", got)
	}
}
