// Package router implements the wormhole-switched, virtual-channel,
// input-buffered router model of the simulator: unidirectional physical
// channels carrying several virtual channels with small flit buffers
// (Table 2: 2 flits per channel buffer), header route computation and
// virtual-channel allocation, switch arbitration at one flit per physical
// channel per cycle, and the per-router Disha deadlock buffer used by the
// progressive recovery lane.
package router

import (
	"fmt"
	"math/bits"

	"repro/internal/message"
	"repro/internal/topology"
)

// ChannelKind distinguishes the three physical channel roles.
type ChannelKind int

const (
	// KindLink is a router-to-router link channel.
	KindLink ChannelKind = iota
	// KindInject is an NI-to-router injection channel.
	KindInject
	// KindEject is a router-to-NI ejection channel.
	KindEject
)

func (k ChannelKind) String() string {
	switch k {
	case KindLink:
		return "link"
	case KindInject:
		return "inject"
	default:
		return "eject"
	}
}

// VC is one virtual channel: a small FIFO flit buffer plus wormhole state.
// Ownership follows the standard discipline: the allocator (upstream router
// VA stage, or the NI for injection channels) sets Owner when it assigns the
// VC to a packet's worm; the dequeuer (downstream router, or the NI for
// ejection channels) clears it when the tail flit leaves the buffer.
type VC struct {
	// Ch is the physical channel this VC belongs to; Index its position.
	Ch    *Channel
	Index int

	cap int

	// The buffer is a window on Owner's worm, not a store of flits: an
	// exclusively owned VC only ever holds consecutive flits of its owner,
	// so the n committed flits are Owner's flits front..front+n-1 and the ns
	// flits staged this cycle follow them. Stage checks the flit it is given
	// is the next one, and Commit only moves the watermark.
	front, n, ns int32

	// RoutePort is the output port of Route at the router consuming this
	// VC as an input (meaningful only when Route != nil).
	RoutePort int32

	// Owner is the packet whose worm currently holds this VC, nil if free.
	Owner *message.Packet
	// Route is the downstream VC allocated for Owner's worm when this VC
	// acts as a router input, nil before virtual-channel allocation.
	Route *VC

	// LastMove is the last cycle a flit was dequeued from this buffer, or
	// the cycle the buffer last became occupied; used by timeout-based
	// deadlock detection.
	LastMove int64

	// Knotted marks this VC as part of a knot in the most recent
	// channel-wait-for-graph scan: its occupant cannot reach any
	// progressing resource. Progressive recovery uses the flag to rescue
	// genuinely deadlocked packets rather than merely congested ones
	// (blocked-time alone cannot distinguish the two once endpoint
	// controllers saturate).
	Knotted bool

	// stallNoted dedupes VC-stall trace events: set when the current
	// blocked header's stall has been reported, cleared on allocation
	// success or when the buffer drains.
	stallNoted bool

	// input and wi are the index of the VC's channel among host.Inputs and
	// of the host word holding bit; they share the flags' eight bytes.
	input, wi int16

	// occ, when non-nil, points at a network-wide committed-flit counter
	// maintained incrementally so quiescence checks need not scan every
	// channel. It counts committed flits only, matching Occupied.
	occ *int64

	// host and bit tie this VC into the words of the router consuming its
	// channel as an input: bit is this VC's one bit of host.words[wi] and of
	// *Ch.occ. Router.initState assigns them on the router's first Step;
	// until then, and for good on VCs that are no router's input (ejection
	// channels), host is nil, the routed/ready bookkeeping is skipped and
	// bit is 1<<Index in the channel's own occupancy word.
	host *Router
	bit  uint64

	// up is the router this VC is an output of (set by its initState; nil
	// for injection channels, which the NI allocates): losing Owner here is
	// the event that wakes the headers parked there.
	up *Router

	// feeder, on a VC that is some router's allocated route target, points
	// back at the (unique — ownership is exclusive) input VC routed into
	// it. Occupancy changes here maintain the feeder router's ready
	// bitmask (bit = route target has space), so switch arbitration never
	// dereferences downstream buffers: a worm blocked on a full target
	// drops out of the request pass until a dequeue below frees a slot.
	feeder *VC
}

// Cap returns the buffer capacity in flits.
func (v *VC) Cap() int { return v.cap }

// ReduceCap permanently removes one buffer slot — the credit-loss fault: a
// flow-control credit that never returns. It fails (so the injector retries
// on a later cycle) while every slot is occupied, or when only one slot
// remains: a zero-capacity VC could never drain the flits it owes.
func (v *VC) ReduceCap() bool {
	if v.cap <= 1 || !v.SpaceFor() {
		return false
	}
	v.cap--
	if v.feeder != nil && !v.SpaceFor() {
		v.feeder.host.words[v.feeder.wi].ready &^= v.feeder.bit
	}
	return true
}

// Len returns the number of committed flits buffered.
func (v *VC) Len() int { return int(v.n) }

// SpaceFor reports whether a new flit may be staged into this VC this cycle
// (committed plus staged occupancy below capacity).
func (v *VC) SpaceFor() bool { return int(v.n+v.ns) < v.cap }

// StagedLen returns the number of staged (uncommitted) flits. At every cycle
// boundary — after Channel.Commit has run — it must be zero; the runtime
// invariant checker asserts this.
func (v *VC) StagedLen() int { return int(v.ns) }

// ForEachFlit visits every committed flit in buffer order, head first. The
// callback must not mutate the VC.
func (v *VC) ForEachFlit(f func(message.Flit)) {
	for i := int32(0); i < v.n; i++ {
		f(message.Flit{Pkt: v.Owner, Idx: int(v.front + i)})
	}
}

// Front returns the flit at the head of the buffer.
func (v *VC) Front() (message.Flit, bool) {
	if v.n == 0 {
		return message.Flit{}, false
	}
	return message.Flit{Pkt: v.Owner, Idx: int(v.front)}, true
}

// Stage appends a flit to arrive at the end of this cycle: on an empty VC
// any flit of Owner, else Owner's flit after the last one buffered.
func (v *VC) Stage(f message.Flit) {
	if !v.SpaceFor() {
		panic(fmt.Sprintf("router: staging into full VC %v", v))
	}
	if v.n+v.ns == 0 {
		v.front = int32(f.Idx)
	}
	if f.Pkt != v.Owner || f.Idx != int(v.front+v.n+v.ns) {
		panic(fmt.Sprintf("router: staging flit %d into %v: not its owner's flit %d", f.Idx, v, v.front+v.n+v.ns))
	}
	v.ns++
	if v.Ch != nil {
		v.Ch.noteStaged(v.Index)
	}
	if v.feeder != nil && !v.SpaceFor() {
		v.feeder.host.words[v.feeder.wi].ready &^= v.feeder.bit
	}
}

// Commit makes staged arrivals visible by moving the watermark past them;
// the network calls this once per cycle after all routers and NIs have
// acted, so that a flit traverses at most one hop per cycle.
func (v *VC) Commit(now int64) {
	if v.ns == 0 {
		return
	}
	if v.n == 0 {
		v.LastMove = now
	}
	if v.occ != nil {
		*v.occ += int64(v.ns)
	}
	v.n += v.ns
	v.ns = 0
	*v.Ch.occ |= v.bit
}

// Dequeue removes and returns the head flit, updating wormhole state: on
// tail departure the VC is freed (ownership and route cleared).
func (v *VC) Dequeue(now int64) message.Flit {
	if v.n == 0 {
		panic("router: dequeue from empty VC")
	}
	f := message.Flit{Pkt: v.Owner, Idx: int(v.front)} // before a tail's release
	v.front++
	v.n--
	if v.occ != nil {
		*v.occ--
	}
	if v.n == 0 {
		*v.Ch.occ &^= v.bit
	}
	if v.feeder != nil {
		// A dequeue always leaves space, so the feeder becomes ready.
		v.feeder.host.words[v.feeder.wi].ready |= v.feeder.bit
	}
	v.LastMove = now
	if f.Tail() {
		v.release()
	}
	return f
}

// release frees the VC (ownership, route, router-side words) and wakes the
// headers parked at the router it is an output of: one of their candidates
// may just have become free.
func (v *VC) release() {
	v.Owner = nil
	if v.Route != nil {
		v.Route.feeder = nil
	}
	v.Route = nil
	v.RoutePort = 0
	if v.host != nil {
		w := &v.host.words[v.wi]
		w.routed &^= v.bit
		w.ready &^= v.bit
		w.parked &^= v.bit
	}
	v.stallNoted = false
	if v.up != nil {
		v.up.Unpark()
	}
}

// Evacuate removes every flit of the (rescued) owner packet from this VC and
// clears ownership and routing state. It returns the number of flits
// removed. The progressive-recovery engine uses this to drain a deadlocked
// worm into the recovery lane.
func (v *VC) Evacuate(pkt *message.Packet, now int64) int {
	if v.Owner != pkt {
		return 0
	}
	n := int(v.n + v.ns)
	if v.occ != nil {
		// Staged flits were never counted (Commit has not run on them),
		// so only the committed ones leave the tally.
		*v.occ -= int64(v.n)
	}
	v.n, v.ns = 0, 0
	if v.feeder != nil {
		v.feeder.host.words[v.feeder.wi].ready |= v.feeder.bit
	}
	v.release()
	*v.Ch.occ &^= v.bit
	v.LastMove = now
	return n
}

// Blocked reports whether the VC holds flits and has made no progress for
// more than threshold cycles, the trigger for router-level timeout
// detection under true fully adaptive routing.
func (v *VC) Blocked(now int64, threshold int64) bool {
	return v.n > 0 && now-v.LastMove > threshold
}

func (v *VC) String() string {
	return fmt.Sprintf("%v.vc%d", v.Ch, v.Index)
}

// Channel is one unidirectional physical channel with its virtual channels.
type Channel struct {
	Kind ChannelKind
	// Src and Dst are the routers at the channel ends. For injection
	// channels Src is the NI's router (Dst equals it); for ejection
	// channels likewise. Local identifies the NI for inject/eject kinds.
	Src, Dst topology.NodeID
	// Dir is the travel direction for link channels.
	Dir   topology.Direction
	Local int
	// ID is a dense global index assigned by the network, used by the
	// channel-wait-for-graph detector.
	ID  int
	VCs []*VC

	// Stalled suppresses flit transfer over this channel for the current
	// cycle — the link-flaky delay fault. Network.StallLink sets it and the
	// network's end-of-cycle fault stage clears it, so it gates the *next*
	// cycle's switch arbitration; buffered flits stay put and nothing is lost.
	Stalled bool

	// stagePending is set the first time a flit is staged into any VC this
	// cycle and cleared by Commit; onStage (if wired) fires on that first
	// staging so the network can commit only touched channels. stagedMask
	// tracks which VCs hold staged flits so Commit visits only those.
	stagePending bool
	stagedMask   uint64
	onStage      func(*Channel)

	// occ points at the word holding the channel's committed-occupancy bits:
	// bit shift+v is set while VCs[v] holds committed flits;
	// VC.Commit/Dequeue/Evacuate maintain it through VC.bit. Once the
	// consuming router has built its state the word is one of that router's
	// words[w].occ, shared with its other inputs (Router.initState re-points
	// it and sets shift), so the allocator tests every input in one load
	// while the NI ejection drain and the deadlock scan read the same bits
	// through OccMask. A channel no router hosts — an ejection channel, or
	// any channel before its router's first Step — uses ownOcc at shift 0.
	occ    *uint64
	ownOcc uint64
	vmask  uint64 // len(VCs) low bits
	shift  uint8
}

// OccMask returns the committed-occupancy bitmask: bit v is set iff VCs[v]
// buffers at least one committed flit.
func (c *Channel) OccMask() uint64 { return *c.occ >> c.shift & c.vmask }

// SetStageHook installs fn to run once per cycle when the channel first
// receives a staged flit. The network uses it to maintain its dirty-channel
// list; the hook must be idempotent with respect to repeated cycles.
func (c *Channel) SetStageHook(fn func(*Channel)) { c.onStage = fn }

// StagePending reports whether the channel holds uncommitted staged flits.
func (c *Channel) StagePending() bool { return c.stagePending }

func (c *Channel) noteStaged(idx int) {
	c.stagedMask |= 1 << uint(idx)
	if c.stagePending {
		return
	}
	c.stagePending = true
	if c.onStage != nil {
		c.onStage(c)
	}
}

// MaxVCs is the most virtual channels one physical channel may carry: its
// occupancy, staging and router-word bits must fit one 64-bit word.
const MaxVCs = 64

// NewChannel builds a channel with vcs virtual channels of depth flitBuf.
func NewChannel(kind ChannelKind, src, dst topology.NodeID, dir topology.Direction, local, id, vcs, flitBuf int) *Channel {
	if vcs > MaxVCs {
		panic(fmt.Sprintf("router: %d VCs exceed the %d-bit channel bitmask", vcs, MaxVCs))
	}
	ch := &Channel{Kind: kind, Src: src, Dst: dst, Dir: dir, Local: local, ID: id}
	ch.occ = &ch.ownOcc
	ch.vmask = ^uint64(0) >> uint(64-vcs)
	ch.VCs = make([]*VC, vcs)
	for i := range ch.VCs {
		ch.VCs[i] = &VC{Ch: ch, Index: i, cap: flitBuf, bit: 1 << uint(i)}
	}
	return ch
}

func (c *Channel) String() string {
	switch c.Kind {
	case KindLink:
		return fmt.Sprintf("link[%d%v]", c.Src, c.Dir)
	case KindInject:
		return fmt.Sprintf("inj[%d.%d]", c.Src, c.Local)
	default:
		return fmt.Sprintf("ej[%d.%d]", c.Src, c.Local)
	}
}

// Commit commits staged arrivals on every VC that staged this cycle.
func (c *Channel) Commit(now int64) {
	w := c.stagedMask
	c.stagedMask = 0
	c.stagePending = false
	for w != 0 {
		v := bits.TrailingZeros64(w)
		w &= w - 1
		c.VCs[v].Commit(now)
	}
}

// SetOccupancyCounter points every VC of this channel at a shared
// committed-flit counter. The network wires one counter across all channels
// after build so Quiescent can test a single integer instead of scanning
// every buffer.
func (c *Channel) SetOccupancyCounter(occ *int64) {
	for _, v := range c.VCs {
		v.occ = occ
	}
}

// Occupied returns the number of flits buffered across all VCs.
func (c *Channel) Occupied() int {
	n := 0
	for _, v := range c.VCs {
		n += v.Len()
	}
	return n
}
