package network

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/deadlock"
	"repro/internal/message"
	"repro/internal/netiface"
	"repro/internal/probe"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/stats"
	"repro/internal/token"
)

// Snapshot/restore of a fully wired network, the foundation of the bounded
// model-checking explorer (internal/mc) and of mid-run checkpointing tests.
//
// Design: the network's infrastructure — routers, channels, VCs, NIs, the
// rescue engine, the token manager, the detector — has stable identity. A
// snapshot never clones those objects; it captures their canonical mutable
// state and Restore writes that state back into the same live instances, so
// every hook and closure wired at build time stays valid. Only the payload
// object graph (messages, packets, transactions) is deep-cloned — once at
// Snapshot time (so the live run can keep mutating its own objects) and
// again at Restore time (so one snapshot can be restored arbitrarily many
// times, as BFS exploration requires, without the restored runs aliasing
// each other).
//
// Derived acceleration state is deliberately absent from the snapshot: the
// router occupancy words, route mirrors and candidate memos, the channel
// occupancy masks, the shared committed-flit counter, the active-set sweep
// masks and the NI wake ring are all rebuilt from canonical state during
// Restore. After a restore every component is marked active with its catch-up
// timestamp at now-1; spurious activity is byte-identical safe (stepping a
// dormant component is a pure round-robin rotation, the same equivalence
// that makes the sparse engine match dense stepping, and a sleeper goes back
// on the ring when it next leaves the set), and the RR-cursor catch-up that
// sleeping components were owed at capture time is applied to the live
// components before they are captured, so a restored run and an
// uninterrupted run produce identical delivery digests.
//
// Snapshots happen only at cycle boundaries (between Step calls): every
// staged flit has been committed and the dirty-channel list is empty.
// Snapshot panics otherwise. Fault injection is not supported across a
// snapshot (Health masks, frozen routers and stalled channels are fault
// state owned by the injector); Snapshot panics if a health mask is
// installed.

// SnapshottableSource is implemented by traffic sources whose run state must
// rewind with the network (traffic.Synthetic and the model checker's
// scripted source both do).
type SnapshottableSource interface {
	CaptureSourceState() any
	RestoreSourceState(any)
}

// Snapshot is a complete captured network state. Fields are exported so the
// model checker can derive canonical state hashes from the same structure;
// treat it as immutable once captured.
type Snapshot struct {
	ClockNow  int64
	RNGState  [4]uint64
	NextPktID message.PacketID
	NextTxnID message.TxnID
	Stats     stats.Collector

	// Txns are cloned in-flight transactions, sorted by ID.
	Txns []*protocol.Transaction
	// VCs holds one state per VC, flattened in (channel ID, VC index) order.
	VCs []router.VCState
	// Routers holds per-router scheduling state, with no SkipIdle catch-up
	// owed (Snapshot settles it first).
	Routers []router.RouterSched
	// NIs holds per-endpoint NI state, likewise caught up.
	NIs []netiface.NIState

	Token    *token.ManagerState
	Rescue   *core.RescueState
	Detector *deadlock.DetectorState
	Probe    *probe.EngineState
	Source   any
}

// DeferRescue suppresses the recovery engine for the next k cycles. The
// model checker uses single-cycle defers to enumerate recovery-scheduling
// nondeterminism; the defer must be fully consumed before the next Snapshot
// (snapshots capture only cycle-boundary state).
func (n *Network) DeferRescue(k int64) { n.rescueDefer += k }

// stepRescue runs the recovery engine unless a defer is pending.
func (n *Network) stepRescue(now int64) {
	if n.rescueDefer > 0 {
		n.rescueDefer--
		return
	}
	n.Rescue.Step(now)
}

// cloneMaps memoizes payload-object clones so shared pointers stay shared on
// the other side of the boundary.
type cloneMaps struct {
	msgs map[*message.Message]*message.Message
	pkts map[*message.Packet]*message.Packet
}

func newCloneMaps() *cloneMaps {
	return &cloneMaps{
		msgs: make(map[*message.Message]*message.Message),
		pkts: make(map[*message.Packet]*message.Packet),
	}
}

func (c *cloneMaps) msg(m *message.Message) *message.Message {
	if m == nil {
		return nil
	}
	if cp, ok := c.msgs[m]; ok {
		return cp
	}
	cp := new(message.Message)
	*cp = *m
	c.msgs[m] = cp
	return cp
}

func (c *cloneMaps) pkt(p *message.Packet) *message.Packet {
	if p == nil {
		return nil
	}
	if cp, ok := c.pkts[p]; ok {
		return cp
	}
	cp := new(message.Packet)
	*cp = *p
	cp.Msg = c.msg(p.Msg)
	c.pkts[p] = cp
	return cp
}

func cloneTxn(t *protocol.Transaction) *protocol.Transaction {
	cp := new(protocol.Transaction)
	*cp = *t
	cp.Thirds = append([]int(nil), t.Thirds...)
	return cp
}

// Snapshot captures the complete network state at the current cycle
// boundary. A run that snapshots and keeps going is byte-identical to one
// that never snapshotted: the only thing Snapshot does to the live network is
// apply, early, the rotation catch-up its sleeping components were owed.
func (n *Network) Snapshot() *Snapshot {
	if len(n.dirtyCh) != 0 {
		panic("network: Snapshot with uncommitted staged flits (call between Steps)")
	}
	if n.Health != nil {
		panic("network: Snapshot under fault injection is not supported")
	}
	if n.rescueDefer != 0 {
		panic("network: Snapshot with an unconsumed rescue defer")
	}
	now := n.Clock.Now()
	c := newCloneMaps()
	s := &Snapshot{
		ClockNow:  now,
		RNGState:  n.RNG.State(),
		NextPktID: n.nextPktID,
		NextTxnID: n.Engine.NextTxnID(),
		Stats:     n.Stats.CaptureState(),
	}
	n.Table.ForEach(func(t *protocol.Transaction) {
		s.Txns = append(s.Txns, cloneTxn(t))
	})
	sort.Slice(s.Txns, func(i, j int) bool { return s.Txns[i].ID < s.Txns[j].ID })
	for _, ch := range n.Channels {
		for _, vc := range ch.VCs {
			s.VCs = append(s.VCs, vc.CaptureState(c.pkt))
		}
	}
	// Settle the idle catch-up sleeping components are owed before capturing
	// them: the restored run marks everything active at now with no history
	// to catch up on, and catch-up is additive, so the live run continues
	// exactly as if it had not been snapshotted.
	n.settleSkipped(now)
	s.Routers = make([]router.RouterSched, len(n.Routers))
	for id, r := range n.Routers {
		s.Routers[id] = r.CaptureSched()
	}
	s.NIs = make([]netiface.NIState, len(n.NIs))
	for ep, ni := range n.NIs {
		s.NIs[ep] = ni.CaptureState(c.msg, c.pkt)
	}
	if n.Token != nil {
		st := n.Token.CaptureState()
		s.Token = &st
	}
	if n.Rescue != nil {
		st := n.Rescue.CaptureState(c.msg)
		s.Rescue = &st
	}
	if n.Detector != nil {
		st := n.Detector.CaptureState()
		s.Detector = &st
	}
	if n.Probe != nil {
		st := n.Probe.CaptureState()
		s.Probe = &st
	}
	if n.Source != nil {
		src, ok := n.Source.(SnapshottableSource)
		if !ok {
			panic(fmt.Sprintf("network: source %T does not support snapshots", n.Source))
		}
		s.Source = src.CaptureSourceState()
	}
	return s
}

// Restore rewinds the network to a captured state. The snapshot itself stays
// untouched (payload objects are cloned again), so it may be restored any
// number of times. Must be called at a cycle boundary of the live network.
func (n *Network) Restore(s *Snapshot) {
	if len(n.dirtyCh) != 0 {
		panic("network: Restore with uncommitted staged flits (call between Steps)")
	}
	if n.Health != nil {
		panic("network: Restore under fault injection is not supported")
	}
	now := s.ClockNow
	c := newCloneMaps()

	n.Clock.SetNow(now)
	n.RNG.SetState(s.RNGState)
	n.nextPktID = s.NextPktID
	n.Engine.SetNextTxnID(s.NextTxnID)
	n.Stats.RestoreState(s.Stats)

	n.Table.Reset()
	for _, t := range s.Txns {
		n.Table.Add(cloneTxn(t))
	}

	i := 0
	for _, ch := range n.Channels {
		for _, vc := range ch.VCs {
			vc.RestoreState(s.VCs[i], c.pkt)
			i++
		}
		ch.ResetDerived()
	}
	for id, r := range n.Routers {
		r.RestoreSched(s.Routers[id])
		r.RebuildState()
	}
	for ep, ni := range n.NIs {
		ni.RestoreState(s.NIs[ep], c.msg, c.pkt)
	}
	if n.Token != nil {
		n.Token.RestoreState(*s.Token)
	}
	if n.Rescue != nil {
		n.Rescue.RestoreState(*s.Rescue, c.msg)
	}
	if n.Detector != nil {
		n.Detector.RestoreState(*s.Detector)
	}
	if n.Probe != nil {
		n.Probe.RestoreState(*s.Probe)
	}
	if n.Source != nil {
		n.Source.(SnapshottableSource).RestoreSourceState(s.Source)
	}

	// Recompute the shared committed-flit counter from the restored buffers.
	n.occupied = 0
	for _, ch := range n.Channels {
		n.occupied += int64(ch.Occupied())
	}

	// Mark everything active with no catch-up owed: the captured cursors
	// already include any rotation the live run had deferred, and spurious
	// activity decays back out of the sets on the first sweep.
	for i := range n.activeRW {
		n.activeRW[i] = 0
	}
	for i := range n.activeNIW {
		n.activeNIW[i] = 0
	}
	for id := range n.Routers {
		n.activeRW[id>>6] |= 1 << uint(id&63)
		n.lastR[id] = now - 1
	}
	for ep := range n.NIs {
		n.activeNIW[ep>>6] |= 1 << uint(ep&63)
		n.lastNI[ep] = now - 1
	}
	n.dirtyCh = n.dirtyCh[:0]
}
