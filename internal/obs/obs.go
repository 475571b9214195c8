// Package obs is the simulator's structured event-tracing and metrics
// layer. It defines a typed event vocabulary covering the lifecycle the
// paper's dynamics figures are about — injection, virtual-channel
// allocation and stalls, endpoint queue overflow, detection firings,
// recovery actions (deflection, NACK, token capture, recovery-lane
// transfers, controller preemption), channel-wait-for-graph scans, and
// delivery — plus pluggable sinks (bounded ring buffer, JSONL, Chrome
// trace_event format loadable by chrome://tracing and Perfetto), a
// windowed time-series sampler emitting CSV, and deadlock-episode
// forensics that snapshot the blocked wait chain of each observed knot.
//
// The layer is zero-overhead when disabled: instrumented components hold a
// nil *Bus and guard every emission with a single branch; no event values are
// constructed unless a bus is attached.
//
// The package describes what the simulated machine did, on the cycle clock, and
// imports nothing from the repository. What the program around a simulation did
// on the wall clock (requests, jobs, spans, metrics) is internal/telemetry's.
package obs

import "io"

// Kind names an event type. String-typed kinds keep traces self-describing
// in every sink format; events are only constructed when tracing is on, so
// the cost is irrelevant to the disabled path.
type Kind string

// The event vocabulary.
const (
	// KindInject fires when a message's header flit enters the network.
	KindInject Kind = "inject"
	// KindDeliver fires when a message fully arrives at its destination.
	KindDeliver Kind = "deliver"
	// KindVCAlloc fires when a router grants an output virtual channel to
	// a packet's worm (Node = router, Arg = output channel ID, Aux = VC).
	KindVCAlloc Kind = "vc-alloc"
	// KindVCStall fires when a routed header first fails virtual-channel
	// allocation (Node = router, Arg = input channel ID, Aux = VC); the
	// stall is reported once per blockage, not every cycle.
	KindVCStall Kind = "vc-stall"
	// KindQueueFull fires when an endpoint queue first refuses work for
	// lack of space (Node = endpoint, Arg = queue index, Aux = 1 for
	// output queues, 0 for input queues).
	KindQueueFull Kind = "queue-full"
	// KindDetect fires when the endpoint potential-deadlock detector's
	// conditions held past the threshold (Node = endpoint, Arg = queue).
	KindDetect Kind = "detect"
	// KindDeflect fires on an Origin2000-style backoff deflection
	// (Node = endpoint, Arg = queue).
	KindDeflect Kind = "deflect"
	// KindNack fires on a regressive-recovery kill/negative-acknowledge
	// (Node = endpoint, Arg = queue).
	KindNack Kind = "nack"
	// KindTokenCapture fires when a node seizes the Disha token to begin a
	// rescue (Node = router).
	KindTokenCapture Kind = "token-capture"
	// KindLaneTransfer fires when a message starts travelling the
	// deadlock-buffer recovery lane (Node = source router of the hop).
	KindLaneTransfer Kind = "lane-transfer"
	// KindPreempt fires when a destination memory controller is preempted
	// to consume a rescued message from the DMB (Node = endpoint).
	KindPreempt Kind = "preempt"
	// KindTokenRelease fires when a completed rescue returns the token to
	// circulation (Node = router, Arg = rescue chain max depth).
	KindTokenRelease Kind = "token-release"
	// KindCWGScan fires on every channel-wait-for-graph scan
	// (Arg = deadlocked resource count, Aux = newly formed knots).
	KindCWGScan Kind = "cwg-scan"
	// KindCWGDeadlock fires when a scan finds newly formed knots
	// (Arg = deadlocked resource count, Aux = new knots).
	KindCWGDeadlock Kind = "cwg-deadlock"
	// KindEpisodeOpen fires when episode forensics open a deadlock episode
	// (Arg = episode ID, Aux = knot resource count).
	KindEpisodeOpen Kind = "episode-open"
	// KindEpisodeClose fires when an episode resolves (Arg = episode ID,
	// Aux = duration in cycles, Note = resolution).
	KindEpisodeClose Kind = "episode-close"
	// KindMeta carries run metadata (configuration, scheme partition) in
	// Note; emitted once at trace start.
	KindMeta Kind = "meta"
	// KindInvariant fires when the runtime invariant checker finds a
	// conservation-law violation (Node = -1, Note = rule, detail, and a
	// full state snapshot). A conforming simulation never emits it.
	KindInvariant Kind = "invariant-violation"
	// KindFault fires when the fault injector applies a plan event (Node =
	// the affected router or endpoint, -1 for network-wide faults like
	// token loss; Note = the event's kind and parameters; Arg = the plan
	// event index for per-fault attribution in reports and forensics).
	KindFault Kind = "fault"
)

// Event is one structured trace event. The struct is flat and
// allocation-free; kind-specific integers ride in Arg/Aux (documented per
// Kind above) and message identity in Pkt/Txn/MsgType/Src/Dst (zeroed for
// events without a message).
type Event struct {
	Cycle int64 `json:"cycle"`
	Kind  Kind  `json:"kind"`
	// Node is the router or endpoint the event happened at, -1 for global
	// events (scans, meta).
	Node int   `json:"node"`
	Arg  int64 `json:"arg,omitempty"`
	Aux  int64 `json:"aux,omitempty"`
	// Pkt and Txn identify the involved packet and transaction (0 when no
	// message is involved).
	Pkt     int64  `json:"pkt,omitempty"`
	Txn     int64  `json:"txn,omitempty"`
	MsgType string `json:"type,omitempty"`
	Src     int    `json:"src,omitempty"`
	Dst     int    `json:"dst,omitempty"`
	// Note carries free-form detail (meta payloads, episode resolutions).
	Note string `json:"note,omitempty"`
}

// Sink consumes events. Implementations must tolerate being called once
// per event from the single simulation goroutine; no locking is needed.
type Sink interface {
	Event(e Event)
}

// Bus fans events out to its sinks, in the order they were added. A nil *Bus
// is a valid disabled bus: instrumentation sites guard with `if bus != nil`, so
// the disabled path costs one branch and constructs nothing.
//
// A sink may emit from inside Event (the episode tracker derives
// episode-open/close from the events it sees): the derived event reaches every
// sink at once, so the sinks ahead of the emitter see it after the event that
// caused it and the sinks behind see it before.
type Bus struct {
	sinks []Sink
}

// NewBus builds a bus over the given sinks.
func NewBus(sinks ...Sink) *Bus {
	return &Bus{sinks: sinks}
}

// Add attaches another sink behind the ones already there.
func (b *Bus) Add(s Sink) { b.sinks = append(b.sinks, s) }

// AddFirst attaches a sink ahead of the ones already there.
func (b *Bus) AddFirst(s Sink) { b.sinks = append([]Sink{s}, b.sinks...) }

// Emit delivers e to every sink.
func (b *Bus) Emit(e Event) {
	for _, s := range b.sinks {
		s.Event(e)
	}
}

// Close finalizes every sink that buffers output (an io.Closer: the Chrome
// trace sink's trailing bracket, flushes), returning the first error.
func (b *Bus) Close() error {
	var first error
	for _, s := range b.sinks {
		if c, ok := s.(io.Closer); ok {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
