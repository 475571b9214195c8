package sim

import "repro/internal/ckpt"

// Phase identifies the stage of a simulation run. Statistics are only
// accumulated during PhaseMeasure, matching the paper's methodology of
// running "30,000 simulation cycles beyond steady state".
type Phase int

const (
	// PhaseWarmup is the initial transient: the network fills until
	// throughput stabilizes. No statistics are recorded.
	PhaseWarmup Phase = iota
	// PhaseMeasure is the steady-state window over which latency,
	// throughput, and deadlock statistics are accumulated.
	PhaseMeasure
	// PhaseDrain lets in-flight transactions complete so that latency
	// samples for messages injected during measurement are not censored.
	PhaseDrain
)

func (p Phase) String() string {
	switch p {
	case PhaseWarmup:
		return "warmup"
	case PhaseMeasure:
		return "measure"
	case PhaseDrain:
		return "drain"
	default:
		return "unknown"
	}
}

// Clock tracks simulation time and run phases.
type Clock struct {
	cycle        int64
	warmup       int64
	measure      int64
	maxDrain     int64
	measureStart int64
}

// NewClock returns a clock configured with the given warmup length,
// measurement window, and maximum drain allowance, all in cycles.
func NewClock(warmup, measure, maxDrain int64) *Clock {
	return &Clock{warmup: warmup, measure: measure, maxDrain: maxDrain}
}

// Now returns the current cycle.
func (c *Clock) Now() int64 { return c.cycle }

// Tick advances the clock by one cycle.
func (c *Clock) Tick() { c.cycle++ }

// Checkpoint names the clock's state (see package ckpt): the cycle, which is
// unhashed because every hashed cycle is taken relative to it. Phase
// boundaries derive from the configured lengths.
func (c *Clock) Checkpoint(k *ckpt.C) {
	if k.Unhashed() {
		ckpt.Int(k, &c.cycle)
	}
}

// Phase reports the phase of the current cycle.
func (c *Clock) Phase() Phase {
	switch {
	case c.cycle < c.warmup:
		return PhaseWarmup
	case c.cycle < c.warmup+c.measure:
		return PhaseMeasure
	default:
		return PhaseDrain
	}
}

// MeasureWindow returns the [start, end) cycle bounds of the measurement
// phase.
func (c *Clock) MeasureWindow() (start, end int64) {
	return c.warmup, c.warmup + c.measure
}

// Done reports whether the run is past its final allowed cycle.
func (c *Clock) Done() bool {
	return c.cycle >= c.warmup+c.measure+c.maxDrain
}

// MeasureCycles returns the length of the measurement window.
func (c *Clock) MeasureCycles() int64 { return c.measure }
