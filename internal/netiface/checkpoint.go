package netiface

import (
	"repro/internal/ckpt"
	"repro/internal/message"
	"repro/internal/router"
)

// Checkpoint names the NI's canonical state (see package ckpt). An NI, like
// a router, has stable identity: a restore writes into the live instance, so
// the network's hooks and wake closures stay wired. chans resolves the
// injection VCs that output-queue heads have claimed. A restore is not a wake
// site: the network marks everything active after one.
func (n *NI) Checkpoint(c *ckpt.C, chans []*router.Channel) {
	msg := func(m **message.Message) { ckpt.Ref(c, m) }
	ckpt.Slice(c, &n.sourceQ, msg)
	for q := range n.outQ {
		ckpt.Slice(c, &n.outQ[q], func(e *outEntry) {
			ckpt.Ref(c, &e.msg)
			ckpt.Ref(c, &e.pkt)
			router.CheckpointVC(c, &e.vc, chans)
		})
		ckpt.Int(c, &n.outRes[q])
		ckpt.Slice(c, &n.inQ[q], msg)
		ckpt.Int(c, &n.inAlloc[q])
		ckpt.Int(c, &n.streak[q])
		c.Bool(&n.inFullNoted[q])
		c.Bool(&n.outFullNoted[q])
	}
	ckpt.Slice(c, &n.pendingGen, func(e *pendingEntry) {
		ckpt.Ref(c, &e.msg)
		c.Time(&e.readyAt)
	})
	c.Time(&n.ctrlBusyUntil)
	ckpt.Ref(c, &n.ctrlMsg)
	c.Bool(&n.ctrlFromRescue)
	ckpt.Ref(c, &n.rescueReq)
	ckpt.Int(c, &n.ctrlRR)
	ckpt.Int(c, &n.injRR)
	ckpt.Int(c, &n.ejRR)
	c.Bool(&n.WantRescue)
	c.Time(&n.StallUntil)
	if c.Unhashed() {
		ckpt.Int(c, &n.ServicedCount)
		ckpt.Int(c, &n.DeflectCount)
	}
}

// RotateArb advances the NI's round-robin cursors by k — the explorer's
// choice-point lever for endpoint scheduling order (which ejection VC drains,
// which queue the controller serves, which head injects). It touches no
// canonical state; k=0 is the identity.
func (n *NI) RotateArb(k int) {
	if k == 0 {
		return
	}
	n.ejRR += k
	n.ctrlRR += k
	n.injRR += k
}
