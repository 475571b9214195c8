// Package core implements the paper's primary contribution: Extended Disha
// Sequential, the progressive recovery technique for message-dependent
// deadlock (Section 3 and the Appendix proof).
//
// A single token circulates over a logical ring visiting every router and,
// through it, every attached network interface. A network interface whose
// endpoint detector found a potential message-dependent deadlock — or a
// router holding a packet blocked beyond a timeout under true fully adaptive
// routing — captures the token, gaining exclusive use of the recovery lane:
// the flit-sized deadlock buffers (DBs) in each router and the packet-sized
// deadlock message buffers (DMBs) in each network interface. The blocked
// message at the head of the capturing interface's input queue is serviced
// by the memory controller; its subordinate goes into the DMB and travels
// the DB lane to its destination's DMB. A full destination preempts its
// memory controller to consume the message; subordinates that cannot be
// placed in an output queue reuse the token down the dependency chain
// (Cases 1-4 of the Appendix). Because every chain is acyclic and ends in a
// terminating type, the rescue always completes; the token then unwinds
// receiver-by-receiver back to each sender and re-circulates from the
// capturing node. All packets make forward progress — nothing is ever
// killed, retried, or deflected.
//
// Rescue is that whole state machine, token included: one Phase says where
// the token is (circulating, lost, or held by one of the three rescue
// phases). The token's ring walk, its loss, and the reliability watchdog
// that regenerates it (Section 3) are Rescue methods too.
package core

import (
	"fmt"

	"repro/internal/message"
	"repro/internal/netiface"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/topology"
)

// Phase is the state of the recovery lane: the one token is circulating,
// lost, or held by a rescue in one of the last three phases.
type Phase int

const (
	// PhaseCirculating: the token tours the ring; no rescue in progress.
	PhaseCirculating Phase = iota
	// PhaseLost: a fault dropped the token. Nothing circulates or captures
	// until it resurfaces or the watchdog regenerates it.
	PhaseLost
	// PhaseWaitService: a memory controller is servicing a message on the
	// rescue's behalf (possibly after finishing its current operation —
	// the paper's preemption rule).
	PhaseWaitService
	// PhaseTransfer: a message occupies the DB/DMB recovery lane,
	// travelling with the token to its destination.
	PhaseTransfer
	// PhaseReturn: the token is travelling back from a receiver to its
	// sender.
	PhaseReturn
)

func (p Phase) String() string {
	switch p {
	case PhaseCirculating:
		return "circulating"
	case PhaseLost:
		return "lost"
	case PhaseWaitService:
		return "wait-service"
	case PhaseTransfer:
		return "transfer"
	case PhaseReturn:
		return "return"
	default:
		return "?"
	}
}

// frame records one token receiver in the rescue chain: the endpoint whose
// controller serviced a message (or -1 for the capturing router of a
// router-level rescue) and the subordinates it must still deliver before
// returning the token to its sender.
type frame struct {
	endpoint int
	pending  []*message.Message
}

// Config wires the recovery engine into a simulated system.
type Config struct {
	Torus  *topology.Torus
	Engine *protocol.Engine
	Table  *protocol.Table
	// NIs indexed by endpoint; Routers indexed by router ID; Channels is
	// every physical channel (used to evacuate rescued worms).
	NIs      []*netiface.NI
	Routers  []*router.Router
	Channels []*router.Channel
	// RouterTimeout is the blocked-header threshold for router-level
	// captures (routing-dependent deadlock under TFAR).
	RouterTimeout int64
	// TokenHopCycles is the time the token takes to advance one ring
	// position (at least 1). The paper multiplexes the token over network
	// bandwidth as a control packet, so one cycle per hop is the natural
	// model.
	TokenHopCycles int
	// TokenRegenTimeout, when positive, arms the reliability watchdog the
	// paper's Section 3 calls for: a token missing for this many cycles is
	// regenerated at router 0. Zero disables the watchdog.
	TokenRegenTimeout int64
	// OnRescue is called once per capture (statistics hook).
	OnRescue func(now int64)
}

// Rescue is the Extended Disha Sequential engine: the one token, on its
// logical ring or held by a rescue, and the rescue's dependency chain.
type Rescue struct {
	cfg Config

	// Bus receives token-capture, lane-transfer, preemption, and
	// token-release trace events; nil when tracing is off.
	Bus *obs.Bus

	phase Phase
	// pos is the router the token is at: where the ring walk brought it
	// while circulating, where it was lost, and during a rescue the capture
	// router it re-circulates from. Nothing moves it while a rescue holds
	// the token: the ring walk runs only in PhaseCirculating, Lose panics,
	// and Resurface only counts a stale discard.
	pos topology.NodeID
	// ctr counts cycles since the token's last ring hop.
	ctr int
	// epoch numbers token generations, starting at 1. Each regeneration
	// bumps it, so a resurfacing copy of an older generation (a delayed
	// in-flight control packet from before the loss was declared) is
	// recognizably stale and discarded rather than yielding two live
	// tokens, which would break Disha's one-rescue-at-a-time exclusivity.
	epoch uint64
	// lostCycles counts consecutive cycles in PhaseLost, feeding the
	// watchdog and the OutageCycles statistic.
	lostCycles int64

	stack       []frame
	transferMsg *message.Message
	timer       int64
	serviceNI   *netiface.NI

	// Completed counts finished rescues; MaxDepth tracks the deepest
	// token-reuse chain observed (Case 3/4 recursion); LaneTransfers
	// counts messages moved over the DB/DMB lane; Preemptions counts
	// destination memory controllers preempted to consume from the DMB.
	Completed     int64
	MaxDepth      int
	LaneTransfers int64
	Preemptions   int64
	// Losses and Regenerations count injected token losses and watchdog
	// recoveries; OutageCycles accumulates cycles spent with no live token
	// (recovery latency in the FaultSweep sense); Resurfaces counts lost
	// tokens that reappeared before regeneration; StaleDiscards counts
	// resurfacing copies of a superseded epoch that were thrown away.
	Losses        int64
	Regenerations int64
	OutageCycles  int64
	Resurfaces    int64
	StaleDiscards int64
}

// New builds a recovery engine whose token circulates from router 0.
func New(cfg Config) *Rescue {
	if cfg.Torus == nil || cfg.Engine == nil || cfg.Table == nil {
		panic("core: incomplete config")
	}
	if cfg.TokenHopCycles < 1 {
		panic("core: TokenHopCycles must be >= 1")
	}
	r := &Rescue{cfg: cfg, epoch: 1}
	r.SetRegenTimeout(cfg.TokenRegenTimeout)
	return r
}

// CurrentPhase exposes the current state (for tests and observability).
func (r *Rescue) CurrentPhase() Phase { return r.phase }

// Active reports whether a rescue is in progress, which is when it holds
// the token.
func (r *Rescue) Active() bool { return r.phase > PhaseLost }

// Lost reports whether the token is missing.
func (r *Rescue) Lost() bool { return r.phase == PhaseLost }

// Pos returns the router the token is at (see Rescue.pos).
func (r *Rescue) Pos() topology.NodeID { return r.pos }

// Epoch returns the token's generation number (1 for the original token,
// incremented by every watchdog regeneration).
func (r *Rescue) Epoch() uint64 { return r.epoch }

// SetRegenTimeout arms (or, with 0, disarms) the regeneration watchdog:
// after timeout consecutive lost cycles, the token is re-elected.
func (r *Rescue) SetRegenTimeout(timeout int64) {
	if timeout < 0 {
		panic("core: negative regen timeout")
	}
	r.cfg.TokenRegenTimeout = timeout
}

// RegenTimeout returns the current watchdog threshold (0 = disarmed).
func (r *Rescue) RegenTimeout() int64 { return r.cfg.TokenRegenTimeout }

// Depth returns the current token-reuse chain depth.
func (r *Rescue) Depth() int { return len(r.stack) }

// ForEachCustody visits every message currently in the rescue engine's
// custody: the message in flight over the DB/DMB lane, plus subordinates
// parked in rescue-chain frames awaiting their own lane transfer. Messages
// handed to a network interface (rescue service requests, controller
// occupancy) are NI state, not rescue custody. The flit-conservation
// invariant uses this walk to account for worms evacuated off the normal
// channels.
func (r *Rescue) ForEachCustody(f func(m *message.Message)) {
	if r.transferMsg != nil {
		f(r.transferMsg)
	}
	for i := range r.stack {
		for _, m := range r.stack[i].pending {
			f(m)
		}
	}
}

// Step advances the token and the rescue state machine by one cycle. Call
// once per simulation cycle after routers and NIs have stepped.
func (r *Rescue) Step(now int64) {
	switch r.phase {
	case PhaseCirculating:
		if r.stepRing() {
			r.tryCapture(now)
		}
	case PhaseLost:
		r.maintain()
	case PhaseWaitService:
		// Completion arrives via Serviced.
	case PhaseTransfer:
		r.timer--
		if r.timer <= 0 {
			r.arrive(now)
		}
	case PhaseReturn:
		r.timer--
		if r.timer <= 0 {
			r.advance(now)
		}
	}
}

// stepRing advances the circulating token one cycle along the logical ring
// and reports whether it arrived at a router this cycle. Captures are tried
// on arrival only.
func (r *Rescue) stepRing() (arrived bool) {
	r.ctr++
	if r.ctr < r.cfg.TokenHopCycles {
		return false
	}
	r.ctr = 0
	r.pos = r.cfg.Torus.RingNext(r.pos)
	return true
}

// Lose injects a token-loss fault (the single point of failure the paper's
// Section 3 flags as the technique's main reliability concern). It is legal
// only in PhaseCirculating, and a no-op in PhaseLost: a held token's loss
// would abandon a rescue mid-flight, which the paper's reliable
// token-management assumption (control packets with end-to-end protection
// during rescues) rules out, so Lose panics while a rescue holds it.
func (r *Rescue) Lose() {
	switch {
	case r.Active():
		panic("core: cannot lose a held token")
	case r.phase == PhaseLost:
		return
	}
	r.phase = PhaseLost
	r.lostCycles = 0
	r.Losses++
}

// Regenerate recreates a lost token at router pos in a new epoch, as the
// paper's configurable logical token path permits ("the path taken by the
// token can be logical and, thus, configurable ... to increase
// reliability").
func (r *Rescue) Regenerate(pos topology.NodeID) {
	if r.phase != PhaseLost {
		panic("core: regenerate without loss")
	}
	r.recirculate(pos)
	r.epoch++
	r.Regenerations++
}

// maintain runs one watchdog cycle in PhaseLost: it accounts the outage and,
// once the loss has persisted for the configured timeout, re-elects a token
// at router 0 (the ring origin: every node can compute it, so a distributed
// election would agree on it).
func (r *Rescue) maintain() {
	r.lostCycles++
	r.OutageCycles++
	if t := r.cfg.TokenRegenTimeout; t > 0 && r.lostCycles >= t {
		r.Regenerate(0)
	}
}

// Resurface models a delayed copy of the token control packet reappearing at
// router pos. If the loss is still outstanding the token is simply reinstated
// there (same epoch, no re-election needed) and Resurface returns true. In
// any other phase the copy is stale, superseded by a watchdog regeneration:
// it is discarded (counted in StaleDiscards) so the network never sees two
// live tokens, and Resurface returns false.
func (r *Rescue) Resurface(pos topology.NodeID) bool {
	if r.phase != PhaseLost {
		r.StaleDiscards++
		return false
	}
	r.recirculate(pos)
	r.Resurfaces++
	return true
}

// recirculate puts a lost token back on the ring at router pos.
func (r *Rescue) recirculate(pos topology.NodeID) {
	r.phase = PhaseCirculating
	r.pos = pos
	r.ctr = 0
	r.lostCycles = 0
}

// tryCapture checks the router the token just reached, and its NIs, for
// pending rescues. NI captures (message-dependent deadlock) take precedence
// over router captures (routing-dependent deadlock).
func (r *Rescue) tryCapture(now int64) {
	at := r.pos
	for local := 0; local < r.cfg.Torus.Bristling; local++ {
		ep := r.cfg.Torus.EndpointID(topology.Endpoint{Router: at, Local: local})
		ni := r.cfg.NIs[ep]
		if !ni.WantRescue {
			continue
		}
		ni.WantRescue = false
		q, ok := r.eligibleQueue(ni)
		if !ok {
			// The blockage resolved before the token arrived.
			continue
		}
		m := ni.PopHead(q)
		if !ni.RequestRescueService(m) {
			panic("core: rescue service refused at capture")
		}
		r.serviceNI = ni
		r.stack = []frame{{endpoint: ep}}
		r.phase = PhaseWaitService
		r.captured(now, m)
		return
	}
	rt := r.cfg.Routers[at]
	for _, pkt := range rt.RescuablePackets(now, r.cfg.RouterTimeout) {
		// A packet whose header already reached its destination is
		// draining (its ejection slot is allocated) and never deadlocks;
		// skip it.
		if pkt.ArrivedFlits > 0 {
			continue
		}
		r.evacuate(pkt, now)
		r.stack = []frame{{endpoint: -1}}
		r.captured(now, pkt.Msg)
		r.beginTransfer(pkt.Msg, at, now)
		return
	}
}

// captured counts a token capture for message m at the token's router
// (OnRescue) and traces it.
func (r *Rescue) captured(now int64, m *message.Message) {
	if r.cfg.OnRescue != nil {
		r.cfg.OnRescue(now)
	}
	if r.Bus != nil {
		r.Bus.Emit(obs.Event{
			Cycle: now, Kind: obs.KindTokenCapture, Node: int(r.pos),
			Txn: int64(m.Txn), MsgType: m.Type.String(), Src: m.Src, Dst: m.Dst,
		})
	}
}

// eligibleQueue re-verifies the endpoint deadlock condition at capture time:
// some input-queue head's subordinates cannot be placed in their output
// queue.
func (r *Rescue) eligibleQueue(ni *netiface.NI) (int, bool) {
	for q := 0; q < ni.Cfg.Queues; q++ {
		m, ok := ni.Head(q)
		if !ok {
			continue
		}
		txn := r.cfg.Table.Get(m.Txn)
		typ, count, _, ok := r.cfg.Engine.NextStepInfo(txn, m)
		if !ok {
			continue
		}
		if !ni.OutSpace(ni.Cfg.QueueIndex(typ, false), count) {
			return q, true
		}
	}
	return 0, false
}

// evacuate removes a rescued packet's flits from every virtual channel its
// worm occupies, freeing the deadlocked resources. The lane-transfer time
// already accounts for draining the worm's length through the flit-sized
// deadlock buffers. A packet still streaming from its source (partially
// injected) also releases its output-queue slot: the un-sent remainder
// conceptually feeds the lane through the source's deadlock message buffer.
func (r *Rescue) evacuate(pkt *message.Packet, now int64) {
	pkt.BeingRescued = true
	pkt.Msg.Rescued = true
	for _, ch := range r.cfg.Channels {
		for _, vc := range ch.VCs {
			vc.Evacuate(pkt, now)
		}
	}
	if pkt.SentFlits < pkt.Msg.Flits {
		r.cfg.NIs[pkt.Msg.Src].AbortInjection(pkt)
	}
}

// routerOf maps a frame endpoint (or -1 for the capture router) to its
// router.
func (r *Rescue) routerOf(endpoint int) topology.NodeID {
	if endpoint < 0 {
		return r.pos
	}
	return r.cfg.Torus.EndpointByID(endpoint).Router
}

// beginTransfer launches a DB-lane transfer of m to its destination's DMB.
// The lane is a pipeline of flit-sized deadlock buffers, so the latency is
// the hop distance plus the packet length in flits.
func (r *Rescue) beginTransfer(m *message.Message, from topology.NodeID, now int64) {
	m.Rescued = true
	dst := r.cfg.Torus.EndpointByID(m.Dst)
	r.transferMsg = m
	r.timer = int64(r.cfg.Torus.Distance(from, dst.Router) + m.Flits)
	if r.timer <= 0 {
		r.timer = 1
	}
	r.LaneTransfers++
	r.phase = PhaseTransfer
	if r.Bus != nil {
		r.Bus.Emit(obs.Event{
			Cycle: now, Kind: obs.KindLaneTransfer, Node: int(from),
			Arg: r.timer, Txn: int64(m.Txn), MsgType: m.Type.String(),
			Src: m.Src, Dst: m.Dst,
		})
	}
}

// Serviced receives a memory-controller completion performed on the
// rescue's behalf: subordinates that fit their output queues leave normally;
// the rest are delivered one at a time over the recovery lane, reusing the
// token (Case 4 of the Appendix proof). The host must forward the NI's
// RescueServiced hook here.
func (r *Rescue) Serviced(ni *netiface.NI, m *message.Message, subs []*message.Message, now int64) {
	if r.phase != PhaseWaitService || ni != r.serviceNI {
		panic("core: unexpected rescue service completion")
	}
	r.serviceNI = nil
	top := &r.stack[len(r.stack)-1]
	for _, sub := range subs {
		q := ni.Cfg.QueueIndex(sub.Type, sub.Backoff || sub.Nack)
		if ni.OutSpace(q, 1) {
			ni.EnqueueOut(sub)
		} else {
			top.pending = append(top.pending, sub)
		}
	}
	r.advance(now)
}

// arrive completes a DB-lane transfer: the message lands in the destination
// NI's DMB. Preallocated messages sink via the MSHR path; otherwise a free
// input-queue slot accepts it; otherwise the destination's memory controller
// is preempted to process it straight from the DMB.
func (r *Rescue) arrive(now int64) {
	m := r.transferMsg
	r.transferMsg = nil
	ni := r.cfg.NIs[m.Dst]
	dst := r.cfg.Torus.EndpointByID(m.Dst).Router
	if m.Preallocated {
		ni.DeliverMessage(m, now, false)
		r.tokenReturn(dst)
		return
	}
	q := ni.Cfg.QueueIndex(m.Type, m.Backoff || m.Nack)
	if ni.InSpace(q) {
		ni.DeliverMessage(m, now, false)
		r.tokenReturn(dst)
		return
	}
	m.Delivered = now
	if ni.Cfg.Hooks.Delivered != nil {
		ni.Cfg.Hooks.Delivered(m, now)
	}
	if !ni.RequestRescueService(m) {
		panic("core: destination rescue service refused")
	}
	r.Preemptions++
	if r.Bus != nil {
		r.Bus.Emit(obs.Event{
			Cycle: now, Kind: obs.KindPreempt, Node: int(dst),
			Txn: int64(m.Txn), MsgType: m.Type.String(), Src: m.Src, Dst: m.Dst,
		})
	}
	r.serviceNI = ni
	r.stack = append(r.stack, frame{endpoint: m.Dst})
	if len(r.stack) > r.MaxDepth {
		r.MaxDepth = len(r.stack)
	}
	r.phase = PhaseWaitService
}

// tokenReturn sends the token from the just-served destination's router back
// to the current frame's node over the DB lane.
func (r *Rescue) tokenReturn(from topology.NodeID) {
	top := r.stack[len(r.stack)-1]
	r.timer = int64(r.cfg.Torus.Distance(from, r.routerOf(top.endpoint)))
	if r.timer <= 0 {
		r.timer = 1
	}
	r.phase = PhaseReturn
}

// advance drives the top frame: launch the next pending transfer, or unwind
// (return the token to the sender frame), or finish the rescue and release
// the token for re-circulation from the capturing node.
func (r *Rescue) advance(now int64) {
	for {
		if len(r.stack) == 0 {
			r.finish(now)
			return
		}
		top := &r.stack[len(r.stack)-1]
		if len(top.pending) > 0 {
			sub := top.pending[0]
			top.pending = top.pending[1:]
			r.beginTransfer(sub, r.routerOf(top.endpoint), now)
			return
		}
		if len(r.stack) == 1 {
			r.stack = nil
			r.finish(now)
			return
		}
		from := r.routerOf(top.endpoint)
		r.stack = r.stack[:len(r.stack)-1]
		parent := r.stack[len(r.stack)-1]
		if d := int64(r.cfg.Torus.Distance(from, r.routerOf(parent.endpoint))); d > 0 {
			r.timer = d
			r.phase = PhaseReturn
			return
		}
		// Same router: the parent continues immediately.
	}
}

// finish releases the token for re-circulation from the capture router,
// where it has stayed since the capture.
func (r *Rescue) finish(now int64) {
	r.phase = PhaseCirculating
	r.stack = nil
	r.transferMsg = nil
	r.serviceNI = nil
	r.Completed++
	if r.Bus != nil {
		r.Bus.Emit(obs.Event{
			Cycle: now, Kind: obs.KindTokenRelease, Node: int(r.pos),
			Arg: int64(r.MaxDepth),
		})
	}
}

func (r *Rescue) String() string {
	return fmt.Sprintf("rescue{%s at %d depth=%d completed=%d}", r.phase, r.pos, len(r.stack), r.Completed)
}
