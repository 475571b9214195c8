// Package probe implements in-band distributed deadlock detection by
// Chandy–Misra–Haas edge chasing. Unlike the centralized CWG scan
// (internal/deadlock), which pauses the world every N cycles and inspects
// global state for free, this detector pays for detection with real traffic:
// when an endpoint's local-blocking threshold fires, the engine injects a
// probe naming its origin and the resource it is chasing, and forwards copies
// along channel-wait-for edges, one hop per cycle, riding the credit
// turnaround of the channel that owns each waited-on resource. A probe that
// chases the wait chain all the way back to its origin has traversed a cycle
// confined to blocked resources — deadlock — and fires OnDeclare, which the
// host wires into the handling scheme's existing recovery path.
//
// The in-band cost model: each probe copy is one control flit piggybacked on
// a channel's credit turnaround, so at most Bandwidth probes cross any one
// channel per cycle and every hop is charged to FlitsCharged. Probes queue
// per channel and contend FIFO; congestion therefore delays detection
// exactly as it delays the traffic that caused it.
//
// Chandy–Misra–Haas leaves three cases open; here (TestLaunchWithNoDependents,
// TestNoVertexWaitsOnItself) an empty dependent set starts nothing: Launch on
// an origin not blocked, or blocked with no wait edge (only a header offered
// no route could be), records no launch and issues no probe. No dependent set
// contains its own vertex, let alone only it: every wait edge joins two
// distinct resources (VC to a VC of another channel, ejection VC to input
// queue, input to output queue, output queue to injection VC).
//
// Everything is deterministic: channels drain in ID order, wait edges come
// from the shared deadlock.Layout classifiers in derivation order, and no
// randomness or map-iteration order reaches simulation state.
package probe

import (
	"repro/internal/deadlock"
	"repro/internal/message"
)

// launch tracks one detection attempt: the probes still in flight for it and
// the duplicate-suppression set bounding its fan-out to one visit per vertex.
type launch struct {
	origin      int
	outstanding int
	seen        map[int32]struct{}
}

// Engine is the distributed prober. It is owned and stepped by the network
// (once per cycle, after channel commits), shares the CWG vertex numbering
// with the scan and the checker, and holds all probes in engine-internal
// per-channel queues — probes consume channel bandwidth but never occupy
// flit buffers, so they cannot themselves deadlock the fabric.
type Engine struct {
	host   deadlock.Host
	layout deadlock.Layout
	pool   *message.Pool

	// OnDeclare fires when a probe returns to its (still blocked) origin —
	// a genuine wait cycle. origin is a CWG vertex ID (an NI input-queue
	// vertex for endpoint-launched probes). Called during Step, on a cycle
	// boundary for channel state.
	OnDeclare func(origin int, now int64)

	// Bandwidth is the probes-per-channel-per-cycle cap (default 1): the
	// credit-turnaround piggyback carries one probe per credit.
	Bandwidth int

	// chq holds the per-channel FIFO probe queues, indexed by channel ID.
	chq    [][]*message.Probe
	active int

	seq          int64
	launches     map[int64]*launch
	originActive map[int]int64 // origin vertex -> outstanding launch seq

	// Counters. Conservation invariant, preserved under faults because
	// probes never enter fault-perturbed flit buffers:
	//
	//	Issued == Retired + Declared + InFlight()
	//
	// Launched counts detection attempts (threshold firings that found the
	// origin blocked and sent at least the first wave); Issued counts probe
	// copies placed on channels; Retired counts copies that died without
	// declaring (target drained, duplicate horizon, origin recovered before
	// return); Declared counts probes that returned to a blocked origin;
	// Dropped counts copies discarded for want of a carrier channel;
	// FlitsCharged is the bandwidth bill, one flit per issued copy.
	Launched, Issued, Retired, Declared, Dropped, FlitsCharged int64

	// Declare-latency accounting: cycles from blocking onset at the origin
	// (Born, stamped by the launcher) to the declaring probe's return.
	DeclareLatencySum  int64
	LastDeclareLatency int64

	scratch []int
}

// New builds an engine over the host, allocating probes from pool (nil pool
// falls back to plain allocation).
func New(h deadlock.Host, pool *message.Pool) *Engine {
	return &Engine{
		host:         h,
		layout:       deadlock.LayoutOf(h),
		pool:         pool,
		Bandwidth:    1,
		chq:          make([][]*message.Probe, len(h.AllChannels())),
		launches:     make(map[int64]*launch),
		originActive: make(map[int]int64),
	}
}

// Layout exposes the engine's vertex numbering (identical to the scan's).
func (e *Engine) Layout() deadlock.Layout { return e.layout }

// InFlight returns the number of probe copies currently queued on channels.
func (e *Engine) InFlight() int { return e.active }

// Idle reports whether the engine has no probes in flight — the network's
// fast path may skip Step entirely while true.
func (e *Engine) Idle() bool { return e.active == 0 }

// channelOf maps a probe's destination vertex to the channel whose credit
// turnaround carries it: a VC vertex rides its own channel, an NI input
// queue rides the endpoint's ejection channel, an NI output queue the
// injection channel.
func (e *Engine) channelOf(v int) (int, bool) {
	l := e.layout
	switch {
	case v < l.NumVC:
		return v / l.VCsPer, true
	case v < l.OutBase:
		ep, _, _ := l.InQueueOf(v)
		if ch := e.host.AllNIs()[ep].Eject; ch != nil {
			return ch.ID, true
		}
	default:
		ep, _, _ := l.OutQueueOf(v)
		if ch := e.host.AllNIs()[ep].Inject; ch != nil {
			return ch.ID, true
		}
	}
	return 0, false
}

// send issues one probe copy toward target. Copies to any vertex other than
// the origin are duplicate-suppressed per launch; the return leg to the
// origin is never suppressed — it is the declaration.
func (e *Engine) send(ln *launch, seq int64, origin, target int, born int64) {
	if target != origin {
		if _, dup := ln.seen[int32(target)]; dup {
			return
		}
		ln.seen[int32(target)] = struct{}{}
	}
	chID, ok := e.channelOf(target)
	if !ok {
		e.Dropped++
		return
	}
	e.chq[chID] = append(e.chq[chID], e.pool.NewProbe(origin, target, seq, born))
	ln.outstanding++
	e.active++
	e.Issued++
	e.FlitsCharged++
}

// Launch starts a detection attempt from origin (a CWG vertex, typically an
// NI input queue whose blocking threshold fired). born is the cycle local
// blocking began, so a returning probe reports onset-to-declaration latency.
// The attempt is skipped when an earlier launch from the same origin is
// still in flight, or when the origin turns out not to be blocked at all
// (the threshold fired on congestion that just cleared).
func (e *Engine) Launch(origin int, born, now int64) {
	if _, busy := e.originActive[origin]; busy {
		return
	}
	blocked, edges := e.layout.ClassifyVertex(e.host, origin, e.scratch[:0])
	e.scratch = edges
	if !blocked || len(edges) == 0 {
		return
	}
	seq := e.seq
	e.seq++
	ln := &launch{origin: origin, seen: make(map[int32]struct{}, len(edges))}
	for _, t := range edges {
		e.send(ln, seq, origin, t, born)
	}
	if ln.outstanding == 0 {
		return // every first-wave copy was dropped; nothing to track
	}
	e.launches[seq] = ln
	e.originActive[origin] = seq
	e.Launched++
}

// retire releases one probe copy and garbage-collects its launch record when
// it was the last copy in flight.
func (e *Engine) retire(pr *message.Probe, ln *launch) {
	e.active--
	ln.outstanding--
	if ln.outstanding == 0 {
		delete(e.launches, pr.Seq)
		if e.originActive[ln.origin] == pr.Seq {
			delete(e.originActive, ln.origin)
		}
	}
	e.pool.PutProbe(pr)
}

// Step delivers this cycle's probes: up to Bandwidth per channel, in channel
// ID order. It must run on a cycle boundary (after channel commits), so the
// wait-edge classifiers see settled state. Forwarded copies are enqueued
// behind the cut and travel no earlier than the next cycle — every hop costs
// at least one cycle of latency, like the credit it rides.
func (e *Engine) Step(now int64) {
	if e.active == 0 {
		return
	}
	// Two-phase delivery: cut this cycle's arrivals off every queue first,
	// then process. Processing forwards probes onto tails (possibly of
	// already-visited channels); the cut keeps them out of this cycle.
	var arrivals []*message.Probe
	for chID := range e.chq {
		q := e.chq[chID]
		n := e.Bandwidth
		if n > len(q) {
			n = len(q)
		}
		if n == 0 {
			continue
		}
		arrivals = append(arrivals, q[:n]...)
		copy(q, q[n:])
		for i := len(q) - n; i < len(q); i++ {
			q[i] = nil
		}
		e.chq[chID] = q[:len(q)-n]
	}
	for _, pr := range arrivals {
		e.deliver(pr, now)
	}
}

// deliver processes one probe arrival at its target vertex.
func (e *Engine) deliver(pr *message.Probe, now int64) {
	ln := e.launches[pr.Seq]
	if pr.Target == pr.Origin {
		// The probe chased the wait chain back to where it started. Declare
		// only if the origin is still blocked — recovery or natural drain
		// during the chase makes the cycle stale, not a deadlock.
		blocked, edges := e.layout.ClassifyVertex(e.host, pr.Target, e.scratch[:0])
		e.scratch = edges
		if blocked {
			e.Declared++
			e.LastDeclareLatency = now - pr.Born
			e.DeclareLatencySum += e.LastDeclareLatency
			origin := pr.Origin
			e.retire(pr, ln)
			if e.OnDeclare != nil {
				e.OnDeclare(origin, now)
			}
			return
		}
		e.Retired++
		e.retire(pr, ln)
		return
	}
	blocked, edges := e.layout.ClassifyVertex(e.host, pr.Target, e.scratch[:0])
	e.scratch = edges
	if blocked {
		// Forward a copy along every wait edge before retiring this one, so
		// outstanding never transits zero mid-launch.
		for _, t := range edges {
			e.send(ln, pr.Seq, pr.Origin, t, pr.Born)
		}
	}
	// A non-blocked target breaks the chain here: some resource ahead is
	// draining, so this branch of the chase dies.
	e.Retired++
	e.retire(pr, ln)
}

// AvgDeclareLatency returns the mean blocking-onset-to-declaration latency
// in cycles, 0 before the first declaration.
func (e *Engine) AvgDeclareLatency() float64 {
	if e.Declared == 0 {
		return 0
	}
	return float64(e.DeclareLatencySum) / float64(e.Declared)
}
