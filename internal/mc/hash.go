package mc

import "repro/internal/ckpt"

// stateHash folds the live network's canonical state into a 64-bit hash: the
// one walk that snapshots it (Network.Checkpoint), run in hashing mode, whose
// field classes carry the soundness argument (see package ckpt). The clock is
// excluded except for its scan phase (now mod CWGInterval) and token-walk
// phase, the only ways absolute time feeds back into behavior.
func (e *Explorer) stateHash() uint64 {
	now := e.n.Clock.Now()
	c := ckpt.NewHasher(now)
	if iv := e.opt.Net.CWGInterval; iv > 0 {
		phase := now % iv
		ckpt.Int(c, &phase)
	}
	if hop := int64(e.opt.Net.TokenHopCycles); hop > 1 {
		phase := now % hop
		ckpt.Int(c, &phase)
	}
	e.n.Checkpoint(c)
	return c.Sum()
}
