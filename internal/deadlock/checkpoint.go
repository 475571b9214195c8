package deadlock

import "repro/internal/ckpt"

// Checkpoint names the detector's canonical state (see package ckpt). What
// influences future behaviour is the most recent scan's deadlocked set —
// fresh-knot accounting compares the next scan's set against it, and the next
// scan clears the VC flags it published — written as the ascending vertex
// list; a restore rebuilds the bitset from it. The vertex layout is derived
// from the immutable host shape and everything else is per-scan scratch. The
// counters are pure bookkeeping but rewind too, so a restored run reports what
// the uninterrupted one does.
func (d *Detector) Checkpoint(c *ckpt.C) {
	ckpt.Slice(c, &d.lockedList, func(v *int32) { ckpt.Int(c, v) })
	if c.Reading() {
		clear(d.locked)
		for _, v := range d.lockedList {
			d.locked.set(v)
		}
	}
	ckpt.Int(c, &d.LastDeadlocked)
	if c.Unhashed() {
		ckpt.Int(c, &d.Scans)
		ckpt.Int(c, &d.Deadlocks)
	}
}
