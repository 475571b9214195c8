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

// TestProfilerAttribution checks only what preemption cannot break: being
// descheduled adds wall time to whichever phase is open, so a phase may get
// more than it spun, and one phase may overtake another, but none gets less,
// and a phase no mark names gets nothing.
func TestProfilerAttribution(t *testing.T) {
	spins := map[string]time.Duration{"source": 50 * time.Microsecond, "routing": 200 * time.Microsecond, "arbitration": 100 * time.Microsecond}
	p := NewCycleProfiler(1)
	for i := 0; i < 10; i++ {
		p.BeginCycle()
		spin(spins["source"])
		p.Mark(PhaseSource)
		spin(spins["routing"])
		p.Mark(PhaseRouting)
		spin(spins["arbitration"])
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
	for i, ph := range b.Phases {
		if i > 0 && ph.Ns > b.Phases[i-1].Ns {
			t.Errorf("phases not in descending order: %+v", b.Phases)
		}
		switch d, spun := spins[ph.Phase]; {
		case spun && ph.Ns < int64(10*d):
			t.Errorf("%s got %v over 10 cycles, less than the %v it spun", ph.Phase, time.Duration(ph.Ns), 10*d)
		case !spun && ph.Phase != "obs" && ph.Ns != 0:
			t.Errorf("%s, which no mark names, got %v", ph.Phase, time.Duration(ph.Ns))
		}
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
