package network

import (
	"repro/internal/ckpt"
	"repro/internal/message"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Fault effects. What an injected fault does to the engine is network state:
// the operations below (and VC.ReduceCap, for a lost credit) are the only
// writers of the fields a fault changes — the health mask, FrozenUntil,
// StallUntil, Channel.Stalled, a VC's capacity, the FaultStats ledger — and
// Checkpoint names all of them, so a faulted run snapshots, restores and
// hashes like any other. A FaultSchedule (package fault's Injector) decides
// when each operation runs and nothing else.

// FaultSchedule is a schedule of fault events attached to the network. The
// network steps it at the end of every cycle, after the sweep and before
// OnCycle, names its cursor in every Checkpoint, and its plan in the shape
// of every snapshot.
type FaultSchedule interface {
	// Step applies the events due at the end of cycle now.
	Step(now int64)
	// Checkpoint names the schedule's own state (see package ckpt).
	Checkpoint(c *ckpt.C)
	// Canonical names the plan: equal strings schedule equal faults.
	Canonical() string
}

// faultStage runs at the end of every cycle once a fault schedule is attached
// or a link stalled: the link stalls of the cycle end, then the schedule
// applies the events due.
type faultStage struct {
	sched   FaultSchedule
	stalled []*router.Channel // links stalled for the current cycle
}

// stage returns the network's fault stage, creating it on first use.
func (n *Network) stage() *faultStage {
	if n.faults == nil {
		n.faults = &faultStage{}
	}
	return n.faults
}

// AttachFaults installs the network's one fault schedule. Attach before
// stepping.
func (n *Network) AttachFaults(s FaultSchedule) {
	f := n.stage()
	if f.sched != nil {
		panic("network: a fault schedule is already attached")
	}
	f.sched = s
	n.shape = ""
}

func (f *faultStage) step(now int64) {
	for _, ch := range f.stalled {
		ch.Stalled = false
	}
	f.stalled = f.stalled[:0]
	if f.sched != nil {
		f.sched.Step(now)
	}
}

// KillLink removes the link leaving router r in direction d from every
// routing candidate set for good, creating the health mask on the first
// death. A worm already allocated across the link finishes crossing; blocked
// headers re-derive their candidates on their next allocation attempt.
func (n *Network) KillLink(r topology.NodeID, d topology.Direction) {
	if n.Health == nil {
		n.Health = routing.NewHealth(n.Torus)
	}
	n.Health.KillLink(r, d)
	n.InvalidateRouting()
}

// FreezeRouter stalls router id's allocation and arbitration in every cycle
// before until; a freeze already in force that ends later stands. The router
// is woken, and the sweep keeps it in the active set while it is frozen, so
// its steps are the same no-ops a dense sweep makes and its idle catch-up
// never counts a frozen cycle.
func (n *Network) FreezeRouter(id int, until int64) {
	r := n.Routers[id]
	r.FrozenUntil = max(r.FrozenUntil, until)
	n.wakeRouter(id)
}

// StallNI suspends endpoint ep's whole NI pipeline in every cycle before
// until, on the same terms as FreezeRouter.
func (n *Network) StallNI(ep int, until int64) {
	ni := n.NIs[ep]
	ni.StallUntil = max(ni.StallUntil, until)
	n.wakeNI(ep)
}

// StallLink suppresses flit transfer over channel ch in the next cycle; the
// fault stage at its end lifts the stall. Buffered flits stay put.
func (n *Network) StallLink(ch *router.Channel) {
	if !ch.Stalled {
		ch.Stalled = true
		f := n.stage()
		f.stalled = append(f.stalled, ch)
	}
}

// DropWorm destroys one worm using channel ch and returns its message, or nil
// when none qualifies. The victim is the first VC owner with no flit yet
// delivered (a worm severed after partial ejection could never be cleanly
// accounted) and not already in the recovery lane. The whole worm is
// evacuated from every buffer, a partial injection aborted, and its flits
// charged to the Faults ledger; the transaction stays open, so drain
// detection reports the loss as partial delivery instead of a silent
// success.
func (n *Network) DropWorm(ch *router.Channel, now int64) *message.Message {
	var victim *message.Packet
	for _, vc := range ch.VCs {
		p := vc.Owner
		if p != nil && !p.BeingRescued && p.ArrivedFlits == 0 && p.Msg.Injected >= 0 {
			victim = p
			break
		}
	}
	if victim == nil {
		return nil
	}
	victim.BeingRescued = true
	for _, c := range n.Channels {
		for _, vc := range c.VCs {
			vc.Evacuate(victim, now)
		}
	}
	if victim.SentFlits < victim.Msg.Flits {
		n.NIs[victim.Msg.Src].AbortInjection(victim)
	}
	n.Faults.LostFlits += int64(victim.Msg.Flits)
	n.Faults.LostMsgs++
	return victim.Msg
}

// checkpointFaults names what faults have done to the network, each as a
// Len-prefixed list of deviations from the fault-free state, so a network no
// fault has touched adds three hashed words (and the two of the unhashed
// ledger): the dead links, the VCs a lost credit has shrunk, and the links
// stalled for the next cycle. A restore puts the fault-free state back first
// and rebuilds the candidate table unless no link was or is dead; the
// routers' derived words, rebuilt after, pick up the capacities.
func (n *Network) checkpointFaults(c *ckpt.C) {
	dirs := n.Torus.Directions()
	dead := n.Health.DeadLinks()
	if k := c.Len(dead); c.Reading() {
		had := n.Health != nil
		n.Health = nil
		for range k {
			var link int
			ckpt.Int(c, &link)
			if n.Health == nil {
				n.Health = routing.NewHealth(n.Torus)
			}
			n.Health.KillLink(topology.NodeID(link/dirs), topology.Direction(link%dirs))
		}
		if had || n.Health != nil {
			n.buildCandTable()
		}
	} else {
		for link := 0; dead > 0; link++ {
			if n.Health.LinkDead(topology.NodeID(link/dirs), topology.Direction(link%dirs)) {
				ckpt.Int(c, &link)
				dead--
			}
		}
	}
	router.CheckpointCaps(c, n.Channels, n.Cfg.FlitBuf)
	var stalled []*router.Channel
	if n.faults != nil {
		stalled = n.faults.stalled
	}
	if c.Reading() {
		for _, ch := range stalled {
			ch.Stalled = false
		}
	}
	ckpt.Slice(c, &stalled, func(ch **router.Channel) {
		id := -1
		if !c.Reading() {
			id = (*ch).ID
		}
		ckpt.Int(c, &id)
		if c.Reading() {
			*ch = n.Channels[id]
			(*ch).Stalled = true
		}
	})
	if c.Reading() && (n.faults != nil || len(stalled) > 0) {
		n.stage().stalled = stalled
	}
	if c.Unhashed() {
		ckpt.Int(c, &n.Faults.LostFlits)
		ckpt.Int(c, &n.Faults.LostMsgs)
	}
}
