package network

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

// This file wires the observability layer (internal/obs) into a built
// network: every instrumented component holds the one trace bus and emits
// straight onto it, and every watcher — trace writers, the windowed sampler,
// deadlock-episode forensics — is a sink on it. All of it is attach-on-demand:
// a network without an attached bus pays one nil-check per event site and
// allocates nothing.

// AttachObs installs the trace bus on every instrumented component and emits
// a metadata event describing the run. Call after New and before Run.
func (n *Network) AttachObs(bus *obs.Bus) {
	n.bus = bus
	for _, r := range n.Routers {
		r.Bus = bus
	}
	for _, ni := range n.NIs {
		ni.Bus = bus
	}
	if n.Rescue != nil {
		n.Rescue.Bus = bus
	}
	bus.Emit(obs.Event{Kind: obs.KindMeta, Node: -1, Note: fmt.Sprintf(
		"radix=%v bristling=%d scheme=%s pattern=%s rate=%g seed=%d partition=%s",
		n.Cfg.Radix, n.Cfg.Bristling, n.Cfg.Scheme, n.Cfg.Pattern.Name, n.Cfg.Rate,
		n.Cfg.Seed, n.Scheme.PartitionSummary())})
}

// Bus returns the attached trace bus, nil when tracing is off.
func (n *Network) Bus() *obs.Bus { return n.bus }

// AttachSampler registers a windowed time-series sampler: it is added to the
// bus (creating a bus if none is attached yet) for event counting and ticked
// every cycle for window rollover.
func (n *Network) AttachSampler(s *obs.Sampler) {
	if n.bus == nil {
		n.AttachObs(obs.NewBus())
	}
	n.bus.Add(s)
	n.sampler = s
}

// Gauges polls the instantaneous state the sampler's gauge columns report.
func (n *Network) Gauges() obs.Gauges {
	now := n.Clock.Now()
	var g obs.Gauges
	flits, capacity := 0, 0
	for _, ch := range n.Channels {
		for _, vc := range ch.VCs {
			capacity += vc.Cap()
			flits += vc.Len()
			if vc.Blocked(now, blockedGaugeThreshold) {
				g.BlockedMsgs++
			}
		}
	}
	if capacity > 0 {
		g.VCOccupancy = float64(flits) / float64(capacity)
	}
	g.Outstanding = n.Table.Len()
	for _, ni := range n.NIs {
		g.SourceBacklog += ni.SourceBacklog()
	}
	if n.Detector != nil {
		g.CWGLocked = n.Detector.LastDeadlocked
	}
	return g
}

// blockedGaugeThreshold is the no-progress age (cycles) past which an
// occupied VC counts into the sampler's blocked gauge. It is a display
// smoothing constant, not a detection parameter: long enough to skip
// ordinary switch-arbitration waits, short relative to any detection
// threshold.
const blockedGaugeThreshold = 8

// AttachEpisodes enables deadlock-episode forensics: the CWG detector starts
// retaining knot wait chains and the tracker, put on the bus (one is created if
// none is attached yet) behind the sinks already there and, for token-capture
// alone, ahead of them, turns the scans and recovery actions it sees into
// episode records. Requires a detector (Cfg.CWGInterval > 0).
func (n *Network) AttachEpisodes(t *obs.EpisodeTracker) error {
	if n.Detector == nil {
		return fmt.Errorf("network: episode forensics need the CWG detector (CWGInterval > 0)")
	}
	if n.bus == nil {
		n.AttachObs(obs.NewBus())
	}
	n.Detector.Forensics = true
	t.Bus, t.Chain = n.bus, n.Detector.KnotChain
	n.bus.AddFirst(t.Early())
	n.bus.Add(t)
	return nil
}

// AttachProfiler installs the cycle-level phase profiler on this network:
// Step begins/ends each cycle on it and the routers mark their own
// routing/arbitration boundary so per-phase attribution matches the real
// pipeline order. Attach-on-demand like the checker and the fault
// injector — a network without a profiler pays one nil check per phase
// boundary and simulates bit-identically.
func (n *Network) AttachProfiler(p *telemetry.CycleProfiler) {
	n.prof = p
	for _, r := range n.Routers {
		r.Prof = p
	}
}
