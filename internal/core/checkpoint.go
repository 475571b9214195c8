package core

import (
	"repro/internal/ckpt"
	"repro/internal/message"
)

// Checkpoint names the recovery engine's canonical state (see package ckpt).
// The engine has stable identity and is restored in place; the NI it is
// waiting on is written as its endpoint and resolved against the configured
// NIs.
func (r *Rescue) Checkpoint(c *ckpt.C) {
	msg := func(m **message.Message) { ckpt.Ref(c, m) }
	ckpt.Int(c, &r.phase)
	ckpt.Int(c, &r.pos)
	ckpt.Int(c, &r.ctr)
	ckpt.Int(c, &r.epoch)
	ckpt.Int(c, &r.lostCycles)
	ckpt.Slice(c, &r.stack, func(f *frame) {
		ckpt.Int(c, &f.endpoint)
		ckpt.Slice(c, &f.pending, msg)
	})
	msg(&r.transferMsg)
	ckpt.Int(c, &r.timer) // a countdown, not a cycle
	ep := -1
	if r.serviceNI != nil && !c.Reading() {
		ep = r.serviceNI.Cfg.Endpoint
	}
	ckpt.Int(c, &ep)
	if c.Reading() {
		r.serviceNI = nil
		if ep >= 0 {
			r.serviceNI = r.cfg.NIs[ep]
		}
	}
	if c.Unhashed() {
		for _, p := range []*int64{&r.Completed, &r.LaneTransfers, &r.Preemptions,
			&r.Losses, &r.Regenerations, &r.OutageCycles, &r.Resurfaces, &r.StaleDiscards} {
			ckpt.Int(c, p)
		}
		ckpt.Int(c, &r.MaxDepth)
	}
}
