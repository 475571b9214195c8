package router

import (
	"fmt"

	"repro/internal/message"
)

// Snapshot/restore support for the model-checking explorer.
//
// Routers, channels and VCs are infrastructure with stable identity: a
// snapshot never clones them, it captures their *canonical* mutable state
// (buffered flits, wormhole ownership, allocated routes, timestamps) and a
// restore writes that state back into the same live objects. All derived
// acceleration state — the occupancy/routed/ready/parked words and feeder
// back-pointers — is rebuilt from the canonical state afterwards via
// RebuildState/ResetDerived, exactly the way Router.initState folds
// pre-filled buffers in on a router's first Step. That keeps the snapshot
// format small and makes "restored state" and "state reached by stepping"
// indistinguishable by construction.
//
// Packet pointers cross the snapshot boundary through a caller-supplied
// remap function: the orchestrator (network.Snapshot/Restore) deep-clones
// the message/packet/transaction object graph and passes the translation
// here, so one snapshot can be restored many times without the copies
// aliasing each other.
//
// Snapshots are only valid at a cycle boundary: every staged flit has been
// committed and no channel is dirty. CaptureState panics otherwise.

// VCState is the canonical mutable state of one virtual channel.
type VCState struct {
	// Flits are the committed buffer contents, head first, with packet
	// pointers already remapped into the snapshot's object graph.
	Flits []message.Flit
	// Owner is the worm holding the VC (remapped), nil if free.
	Owner *message.Packet
	// Route/RoutePort mirror the allocated downstream route. Route points at
	// the live target VC — VC objects have stable identity, so no remapping.
	Route     *VC
	RoutePort int
	// LastMove, Knotted and StallNoted carry the detection-related state.
	LastMove   int64
	Knotted    bool
	StallNoted bool
}

// CaptureState snapshots the VC's canonical state. remapPkt translates live
// packet pointers into the snapshot's cloned object graph (it must be
// defined for every packet with flits or ownership here). It panics if the
// VC holds staged (uncommitted) flits — snapshots are cycle-boundary only.
func (v *VC) CaptureState(remapPkt func(*message.Packet) *message.Packet) VCState {
	if v.ns != 0 {
		panic(fmt.Sprintf("router: snapshot of %v with %d staged flits (not at a cycle boundary)", v, v.ns))
	}
	s := VCState{
		Owner:      remapPkt(v.Owner),
		Route:      v.Route,
		RoutePort:  v.RoutePort,
		LastMove:   v.LastMove,
		Knotted:    v.Knotted,
		StallNoted: v.stallNoted,
	}
	if v.n > 0 {
		s.Flits = make([]message.Flit, v.n)
		for i := range s.Flits {
			f := v.ring[(v.head+int32(i))&v.mask]
			s.Flits[i] = message.Flit{Pkt: remapPkt(f.Pkt), Idx: f.Idx}
		}
	}
	return s
}

// RestoreState writes a captured state back into the VC, remapping packet
// pointers out of the snapshot's object graph via remapPkt. It bypasses the
// Commit/Dequeue bookkeeping entirely: callers must rebuild all derived
// state (channel masks, router words, the shared occupancy counter) with
// Channel.ResetDerived and Router.RebuildState afterwards.
func (v *VC) RestoreState(s VCState, remapPkt func(*message.Packet) *message.Packet) {
	v.head, v.n, v.ns = 0, int32(len(s.Flits)), 0
	for i, f := range s.Flits {
		v.ring[i] = message.Flit{Pkt: remapPkt(f.Pkt), Idx: f.Idx}
	}
	v.Owner = remapPkt(s.Owner)
	v.Route = s.Route
	v.RoutePort = s.RoutePort
	v.LastMove = s.LastMove
	v.Knotted = s.Knotted
	v.stallNoted = s.StallNoted
	v.feeder = nil // re-derived from restored routes by Router.RebuildState
}

// ResetDerived recomputes the channel-level derived state from the restored
// canonical VC state: the channel's own bits of the committed-occupancy word,
// and the staging state (asserted clean — restores happen at cycle
// boundaries). The router-level words are rebuilt separately by
// Router.RebuildState.
func (c *Channel) ResetDerived() {
	if c.stagePending || c.stagedMask != 0 {
		panic(fmt.Sprintf("router: restore into %v with staged flits pending", c))
	}
	*c.occ &^= c.vmask << c.shift // sibling inputs share the word
	for _, vc := range c.VCs {
		if vc.ns != 0 {
			panic(fmt.Sprintf("router: restore into %v with staged flits", vc))
		}
		if vc.n > 0 {
			*c.occ |= vc.bit
		}
	}
}

// RouterSched is the router's scheduling and recovery-lane state: everything
// mutable on the router itself beyond its channels.
type RouterSched struct {
	VaRR, PickRR int
	SaRR         []int
	DBBusy       bool
	FrozenUntil  int64
}

// CaptureSched snapshots the router's round-robin cursors and deadlock
// buffer/freeze flags.
func (r *Router) CaptureSched() RouterSched {
	return RouterSched{
		VaRR:        r.vaRR,
		PickRR:      r.pickRR,
		SaRR:        append([]int(nil), r.saRR...),
		DBBusy:      r.DBBusy,
		FrozenUntil: r.FrozenUntil,
	}
}

// RestoreSched writes captured scheduling state back.
func (r *Router) RestoreSched(s RouterSched) {
	r.vaRR = s.VaRR
	r.pickRR = s.PickRR
	copy(r.saRR, s.SaRR)
	r.DBBusy = s.DBBusy
	r.FrozenUntil = s.FrozenUntil
}

// RebuildState drops every piece of derived acceleration state (the
// occ/routed/ready words, feeder pointers) and rebuilds it from the
// canonical VC state, exactly as initState does on a router's first Step:
// fresh zero words, every input channel and VC pointed at its bits again
// (one that was used before this router ever stepped still has them in the
// channel's own word). The parked bits start from zero, so every blocked
// header is re-attempted once.
// Callers must have cleared stale feeder pointers on all VCs first
// (RestoreState does) so targets that lost their route source in the
// restored state do not keep phantom credit links.
func (r *Router) RebuildState() {
	r.initState()
}

// RotateArb advances every arbitration round-robin cursor by k. The
// model-checking explorer uses it as a choice-point lever: rotating the
// cursors before a cycle enumerates the arbitration orders a different
// interleaving history could have produced, without touching any canonical
// state. k=0 is the identity.
func (r *Router) RotateArb(k int) {
	if k == 0 {
		return
	}
	r.vaRR += k
	r.pickRR += k
	for o := range r.saRR {
		r.saRR[o] += k
	}
}
