package network

import (
	"fmt"

	"repro/internal/ckpt"
)

// Snapshot/restore of a fully wired network, the foundation of the bounded
// model-checking explorer (internal/mc) and of mid-run checkpointing tests.
//
// Design: the network's infrastructure — routers, channels, VCs, NIs, the
// rescue engine, the token manager, the detector — has stable identity. A
// snapshot never clones those objects: Checkpoint runs every component's own
// Checkpoint method (see package ckpt), which names its canonical mutable
// state once, and that one walk writes the state out as words, reads it back
// into the live instances — so every hook and closure wired at build time
// stays valid — or folds it into the model checker's state hash. The payload
// objects (messages, packets, transactions) are written by value, so the live
// run keeps mutating its own, every Restore makes fresh ones, and one snapshot
// can be restored arbitrarily many times, as exploration requires, into the
// network it came from or any other of the same shape.
//
// Derived acceleration state is deliberately absent from the snapshot: the
// router occupancy words, the channel occupancy masks, the shared
// committed-flit counter, the active-set sweep masks and the NI wake ring are
// all rebuilt from canonical state during Restore. After a restore every
// component is marked active with its catch-up timestamp at now-1; spurious
// activity is byte-identical safe (stepping a dormant component is a pure
// round-robin rotation, the same equivalence that makes the sparse engine
// match dense stepping, and a sleeper goes back on the ring when it next
// leaves the set), and the RR-cursor catch-up that sleeping components were
// owed at capture time is applied to the live components before they are
// captured, so a restored run and an uninterrupted run produce identical
// delivery digests.
//
// Snapshots happen only at cycle boundaries (between Step calls): every
// staged flit has been committed and the dirty-channel list is empty.
// Checkpoint panics otherwise.
//
// A faulted run is no different. What a fault did is network state (see
// fault.go): the dead links, the capacity lost credits took, the links
// stalled for the next cycle and the loss ledger are named as Len-prefixed
// deviation lists, so a fault-free snapshot grows by a constant five words;
// frozen routers and stalled NIs are their own FrozenUntil and StallUntil.
// The attached fault schedule names its cursor after the source, and its plan
// is part of the shape, so a snapshot restores only under the same plan.

// Snapshot is a complete captured network state: immutable, in memory only,
// and restorable into any network of the same shape.
type Snapshot struct {
	shape string
	data  []uint64
}

// shapeOf describes everything that decides which fields a Checkpoint walk
// names and what the indices among them mean.
func (n *Network) shapeOf() string {
	if n.shape == "" {
		c := &n.Cfg
		n.shape = fmt.Sprintf("radix %v mesh %v bristling %d, %d VCs of %d flits, %v with %d queues, pattern %s, detector %q scanning every %d, source %T",
			c.Radix, c.Mesh, c.Bristling, c.VCs, c.FlitBuf, c.Scheme, n.Scheme.NumQueues(), c.Pattern.Name, c.Detector, c.CWGInterval, n.Source)
		if n.faults != nil && n.faults.sched != nil {
			n.shape += ", faults " + n.faults.sched.Canonical()
		}
	}
	return n.shape
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

// Snapshot captures the complete network state at the current cycle
// boundary. A run that snapshots and keeps going is byte-identical to one
// that never snapshotted: the only thing Snapshot does to the live network is
// apply, early, the rotation catch-up its sleeping components were owed.
func (n *Network) Snapshot() *Snapshot {
	c := ckpt.NewWriter(n.snapWords, n.snapObjects)
	n.Checkpoint(c)
	n.snapWords, n.snapObjects = c.Size()
	return &Snapshot{shape: n.shapeOf(), data: c.Words()}
}

// Restore rewinds the network to a captured state. The snapshot itself stays
// untouched, so it may be restored any number of times. Must be called at a
// cycle boundary of the live network, which must have the shape of the one
// the snapshot was taken from.
func (n *Network) Restore(s *Snapshot) {
	if s.shape != n.shapeOf() {
		panic(fmt.Sprintf("network: Restore of a snapshot of [%s] into [%s]", s.shape, n.shapeOf()))
	}
	c := ckpt.NewReader(s.data)
	n.Checkpoint(c)
	c.Done()
}

// Checkpoint names the network's complete canonical state by running every
// component's Checkpoint in a fixed order. Writing or hashing, it first
// settles the idle catch-up sleeping components are owed, so a hash taken on
// its own sees the cursors a snapshot would; reading, it then rebuilds all
// derived state.
func (n *Network) Checkpoint(c *ckpt.C) {
	if len(n.dirtyCh) != 0 {
		panic("network: checkpoint with uncommitted staged flits (call between Steps)")
	}
	if n.rescueDefer != 0 && !c.Reading() {
		panic("network: checkpoint with an unconsumed rescue defer")
	}
	n.Clock.Checkpoint(c)
	now := n.Clock.Now()
	n.RNG.Checkpoint(c)
	if c.Unhashed() {
		ckpt.Int(c, &n.nextPktID)
	}
	n.Engine.Checkpoint(c)
	n.Stats.Checkpoint(c)
	n.Table.Checkpoint(c, n.Cfg.Pattern)
	for _, ch := range n.Channels {
		for _, vc := range ch.VCs {
			vc.Checkpoint(c, n.Channels)
		}
		if c.Reading() {
			ch.ResetDerived()
		}
	}
	n.checkpointFaults(c)
	if !c.Reading() {
		// Settle the idle catch-up sleeping components are owed before naming
		// their cursors: the restored run marks everything active at now with
		// no history to catch up on, and catch-up is additive, so the live run
		// continues exactly as if it had not been snapshotted.
		n.settleSkipped(now)
	}
	for _, r := range n.Routers {
		r.Checkpoint(c)
		if c.Reading() {
			r.RebuildState()
		}
	}
	for _, ni := range n.NIs {
		ni.Checkpoint(c, n.Channels)
	}
	if n.Token != nil {
		n.Token.Checkpoint(c)
	}
	if n.Rescue != nil {
		n.Rescue.Checkpoint(c)
	}
	if n.Detector != nil {
		n.Detector.Checkpoint(c)
	}
	if n.Probe != nil {
		n.Probe.Checkpoint(c)
	}
	if n.Source != nil {
		src, ok := n.Source.(interface{ Checkpoint(*ckpt.C) })
		if !ok {
			panic(fmt.Sprintf("network: source %T does not support snapshots", n.Source))
		}
		src.Checkpoint(c)
	}
	if n.faults != nil && n.faults.sched != nil {
		n.faults.sched.Checkpoint(c)
	}
	if !c.Reading() {
		return
	}

	// Recompute the shared committed-flit counter from the restored buffers.
	n.occupied = 0
	for _, ch := range n.Channels {
		n.occupied += int64(ch.Occupied())
	}

	// Mark everything active with no catch-up owed: the captured cursors
	// already include any rotation the live run had deferred, and spurious
	// activity decays back out of the sets on the first sweep.
	setAll(n.activeRW, len(n.Routers))
	setAll(n.activeNIW, len(n.NIs))
	for id := range n.Routers {
		n.lastR[id] = now - 1
	}
	for ep := range n.NIs {
		n.lastNI[ep] = now - 1
	}
}
