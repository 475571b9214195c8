package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Phase names one segment of the simulation cycle pipeline. The cycle
// profiler attributes wall time to phases at mark points placed on the
// existing pipeline boundaries, so the breakdown mirrors the order work
// actually happens in a cycle.
type Phase uint8

const (
	// PhaseSource is traffic generation (request injection decisions).
	PhaseSource Phase = iota
	// PhaseProtocol is the network-interface step: queue service, the
	// protocol engine's subordinate expansion, and endpoint detection.
	PhaseProtocol
	// PhaseRouting is virtual-channel allocation (the routing function and
	// candidate selection) across all routers.
	PhaseRouting
	// PhaseArbitration is switch arbitration and link traversal across all
	// routers.
	PhaseArbitration
	// PhaseRescue is the progressive-recovery engine: token movement and
	// recovery-lane transfers.
	PhaseRescue
	// PhaseCredit is channel commit: staged flit arrival and credit return.
	PhaseCredit
	// PhaseDeadlock is the periodic channel-wait-for-graph scan.
	PhaseDeadlock
	// PhaseObs is the observability tail of the cycle: sampler ticks and
	// OnCycle callbacks.
	PhaseObs

	// NumPhases bounds the phase enum.
	NumPhases
)

var phaseNames = [NumPhases]string{
	"source", "protocol/ni", "routing", "arbitration",
	"rescue", "credit/commit", "deadlock-scan", "obs",
}

func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// CycleProfiler attributes simulation wall time to pipeline phases. It is
// attached to a network like the invariant checker or the fault injector:
// every instrumented site holds a possibly-nil reference and pays one
// branch when detached. When attached, the profiler samples every
// sampleEvery-th cycle (1 = every cycle); on a sampled cycle each mark
// charges the time since the previous mark to a phase, so the sum of the
// phases equals the measured cycle time by construction.
//
// The profiler is not safe for concurrent use — like the rest of the
// engine, it assumes the single simulation goroutine.
type CycleProfiler struct {
	sampleEvery int64
	cycles      int64
	sampled     int64
	active      bool
	cycleStart  time.Time
	last        time.Time
	totals      [NumPhases]time.Duration
	measured    time.Duration
}

// NewCycleProfiler builds a profiler sampling every sampleEvery-th cycle
// (values below 1 mean every cycle).
func NewCycleProfiler(sampleEvery int64) *CycleProfiler {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	return &CycleProfiler{sampleEvery: sampleEvery}
}

// BeginCycle opens a cycle; on sampled cycles it arms the mark clock.
func (p *CycleProfiler) BeginCycle() {
	p.cycles++
	if (p.cycles-1)%p.sampleEvery != 0 {
		p.active = false
		return
	}
	p.active = true
	p.sampled++
	p.cycleStart = time.Now()
	p.last = p.cycleStart
}

// Mark charges the time since the previous mark to ph.
func (p *CycleProfiler) Mark(ph Phase) {
	if !p.active {
		return
	}
	now := time.Now()
	p.totals[ph] += now.Sub(p.last)
	p.last = now
}

// EndCycle closes a sampled cycle: the tail since the last mark is charged
// to the observability phase and the whole cycle to the measured total.
func (p *CycleProfiler) EndCycle() {
	if !p.active {
		return
	}
	p.Mark(PhaseObs)
	p.measured += p.last.Sub(p.cycleStart)
	p.active = false
}

// PhaseStat is one row of the breakdown.
type PhaseStat struct {
	Phase string `json:"phase"`
	Ns    int64  `json:"ns"`
	// NsPerCycle is the phase cost per sampled cycle.
	NsPerCycle float64 `json:"ns_per_cycle"`
	// Fraction is this phase's share of the accounted time.
	Fraction float64 `json:"fraction"`
}

// Breakdown is the profiler's result: how measured cycle wall time divides
// across pipeline phases.
type Breakdown struct {
	Cycles        int64 `json:"cycles"`
	SampledCycles int64 `json:"sampled_cycles"`
	SampleEvery   int64 `json:"sample_every"`
	// MeasuredNs is total wall time of the sampled cycles; AccountedNs is
	// the part the phase marks attributed. Their ratio is the coverage
	// guarantee: anything below ~1.0 is un-marked pipeline work.
	MeasuredNs        int64       `json:"measured_ns"`
	AccountedNs       int64       `json:"accounted_ns"`
	AccountedFraction float64     `json:"accounted_fraction"`
	Phases            []PhaseStat `json:"phases"`
}

// Breakdown snapshots the profile, phases sorted by descending cost.
func (p *CycleProfiler) Breakdown() Breakdown {
	b := Breakdown{
		Cycles:        p.cycles,
		SampledCycles: p.sampled,
		SampleEvery:   p.sampleEvery,
		MeasuredNs:    p.measured.Nanoseconds(),
	}
	var accounted time.Duration
	for _, d := range p.totals {
		accounted += d
	}
	b.AccountedNs = accounted.Nanoseconds()
	if b.MeasuredNs > 0 {
		b.AccountedFraction = float64(b.AccountedNs) / float64(b.MeasuredNs)
	}
	for ph := Phase(0); ph < NumPhases; ph++ {
		st := PhaseStat{Phase: ph.String(), Ns: p.totals[ph].Nanoseconds()}
		if p.sampled > 0 {
			st.NsPerCycle = float64(st.Ns) / float64(p.sampled)
		}
		if b.AccountedNs > 0 {
			st.Fraction = float64(st.Ns) / float64(b.AccountedNs)
		}
		b.Phases = append(b.Phases, st)
	}
	sort.SliceStable(b.Phases, func(i, j int) bool { return b.Phases[i].Ns > b.Phases[j].Ns })
	return b
}

// Format renders the breakdown as an aligned table.
func (b Breakdown) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cycle profile: %d cycles (%d sampled, every %d), %.1f ns/cycle measured, %.1f%% accounted\n",
		b.Cycles, b.SampledCycles, b.SampleEvery,
		perCycle(b.MeasuredNs, b.SampledCycles), 100*b.AccountedFraction)
	fmt.Fprintf(&sb, "  %-14s %12s %10s %7s\n", "phase", "total", "ns/cycle", "share")
	for _, ph := range b.Phases {
		fmt.Fprintf(&sb, "  %-14s %12s %10.1f %6.1f%%\n",
			ph.Phase, time.Duration(ph.Ns).Round(time.Microsecond), ph.NsPerCycle, 100*ph.Fraction)
	}
	return sb.String()
}

func perCycle(ns, cycles int64) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(ns) / float64(cycles)
}
