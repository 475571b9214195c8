package deadlock

import "repro/internal/ckpt"

// Checkpoint names the detector's canonical state (see package ckpt). What
// influences future behaviour is the most recent scan's deadlocked set —
// fresh-knot accounting compares the next scan's set against it, and the next
// scan clears the VC flags it published — written as the ascending vertex
// list; a restore rebuilds the bitset from it. The vertex layout is derived
// from the immutable host shape and everything else is per-scan scratch. The
// counters and the detection-latency accounting are pure bookkeeping but must
// rewind too, or a restored path would charge latency against another path's
// scan history.
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
		ckpt.Int(c, &d.DetectLatencySum)
		ckpt.Int(c, &d.DetectLatencyCount)
		ckpt.Int(c, &d.LastDetectLatency)
		ckpt.Int(c, &d.prevScanAt)
		c.Bool(&d.prevKnotted)
	}
}
