package router

import (
	"fmt"

	"repro/internal/ckpt"
)

// Checkpoint support (see package ckpt). Routers, channels and VCs are
// infrastructure with stable identity: their Checkpoint methods name the
// canonical mutable state — buffered flits, wormhole ownership, allocated
// routes, timestamps, cursors — and a restore writes it back into whatever
// live objects stand at the same place in a network of the same shape. All
// derived acceleration state — the occupancy/routed/ready/parked words and
// feeder back-pointers — is rebuilt from the canonical state afterwards via
// ResetDerived/RebuildState, exactly the way Router.initState folds
// pre-filled buffers in on a router's first Step, which makes "restored
// state" and "state reached by stepping" indistinguishable by construction.

// CheckpointVC names a reference to a VC by its place, channel ID and index,
// resolved against chans (the network's channels, indexed by ID) on a restore.
func CheckpointVC(c *ckpt.C, pp **VC, chans []*Channel) {
	place := -1
	if vc := *pp; vc != nil && !c.Reading() {
		place = vc.Ch.ID*MaxVCs + int(vc.Index)
	}
	ckpt.Int(c, &place)
	if c.Reading() {
		*pp = nil
		if place >= 0 {
			*pp = chans[place/MaxVCs].VCs[place%MaxVCs]
		}
	}
}

// Checkpoint names the VC's canonical state; chans resolves its route. It is
// valid only at a cycle boundary and panics on staged (uncommitted) flits. A
// restore bypasses the Commit/Dequeue bookkeeping entirely: callers must
// rebuild all derived state (channel masks, router words) with
// Channel.ResetDerived and Router.RebuildState after.
func (v *VC) Checkpoint(c *ckpt.C, chans []*Channel) {
	if v.ns != 0 {
		panic(fmt.Sprintf("router: checkpoint of %v with %d staged flits (not at a cycle boundary)", v, v.ns))
	}
	n := c.Len(int(v.n))
	if c.Reading() {
		v.n = uint16(n)
		v.feeder = nil // re-derived from restored routes by Router.RebuildState
	}
	// Each committed flit is named as its (packet, index) pair, the words the
	// pinned state counts and counterexample files were hashed over; a
	// restore takes the window's front from the first.
	for i := range int(v.n) {
		pkt, idx := v.Owner, int(v.front)+i
		ckpt.Ref(c, &pkt)
		ckpt.Int(c, &idx)
		if i == 0 && c.Reading() {
			v.front = uint16(idx)
		}
	}
	ckpt.Ref(c, &v.Owner)
	CheckpointVC(c, &v.Route, chans)
	ckpt.Int(c, &v.RoutePort)
	c.Time(&v.LastMove)
	c.Bool(&v.Knotted)
	c.Bool(&v.stallNoted)
}

// CheckpointCaps names the VCs of chans whose capacity lost credits have
// lowered below full (VC.ReduceCap), as a Len-prefixed list of (place,
// capacity) pairs: one word while no credit is lost. A restore gives every
// other VC its full capacity back. Like VC.Checkpoint it leaves the ready
// bits a capacity feeds to Router.RebuildState.
func CheckpointCaps(c *ckpt.C, chans []*Channel, full int) {
	lowered := 0
	for _, ch := range chans {
		for _, vc := range ch.VCs {
			if int(vc.cap) != full {
				lowered++
			}
			if c.Reading() {
				vc.cap = uint16(full)
			}
		}
	}
	if c.Reading() {
		for range c.Len(0) {
			var place, capacity int
			ckpt.Int(c, &place)
			ckpt.Int(c, &capacity)
			chans[place/MaxVCs].VCs[place%MaxVCs].cap = uint16(capacity)
		}
		return
	}
	c.Len(lowered)
	for _, ch := range chans {
		for _, vc := range ch.VCs {
			if int(vc.cap) != full {
				place := ch.ID*MaxVCs + int(vc.Index)
				ckpt.Int(c, &place)
				ckpt.Int(c, &vc.cap)
			}
		}
	}
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
			*c.occ |= vc.bit()
		}
	}
}

// Checkpoint names the router's scheduling and recovery-lane state:
// everything mutable on the router itself beyond its channels.
func (r *Router) Checkpoint(c *ckpt.C) {
	ckpt.Int(c, &r.vaRR)
	ckpt.Int(c, &r.pickRR)
	for o := range r.saRR {
		ckpt.Int(c, &r.saRR[o])
	}
	c.Time(&r.FrozenUntil)
}

// RebuildState drops every piece of derived acceleration state (the
// occ/routed/ready words, feeder pointers) and rebuilds it from the
// canonical VC state, exactly as initState does on a router's first Step:
// fresh zero words, every input channel and VC pointed at its bits again
// (one that was used before this router ever stepped still has them in the
// channel's own word). The parked bits start from zero, so every blocked
// header is re-attempted once.
// Callers must have cleared stale feeder pointers on all VCs first (a
// restoring VC.Checkpoint does) so targets that lost their route source in
// the restored state do not keep phantom credit links.
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
