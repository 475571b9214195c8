package probe

import (
	"slices"

	"repro/internal/ckpt"
	"repro/internal/message"
)

// Checkpoint names the engine's canonical state (see package ckpt): the
// launch records, ascending by sequence number with their seen-sets sorted,
// and the per-channel probe queues; then the counters. Everything else is
// derived from the immutable host shape. A restore recycles the probes
// currently queued.
//
// Launch sequence numbers are monotonic allocation IDs: two states whose
// probe populations differ only by absolute sequence values behave
// identically, so a sequence number hashes as its rank among the live
// launches (every queued probe belongs to one).
func (e *Engine) Checkpoint(c *ckpt.C) {
	seqs := make([]int64, 0, len(e.launches))
	for seq := range e.launches {
		seqs = append(seqs, seq)
	}
	slices.Sort(seqs)
	seq := func(p *int64) {
		if c.Unhashed() {
			ckpt.Int(c, p)
		} else {
			rank, _ := slices.BinarySearch(seqs, *p)
			ckpt.Int(c, &rank)
		}
	}
	if c.Reading() {
		clear(e.launches)
		clear(e.originActive)
	}
	ckpt.Slice(c, &seqs, func(s *int64) {
		ln := e.launches[*s]
		if c.Reading() {
			ln = &launch{seen: make(map[int32]struct{})}
		}
		seq(s)
		ckpt.Int(c, &ln.origin)
		ckpt.Int(c, &ln.outstanding)
		seen := make([]int32, 0, len(ln.seen))
		for v := range ln.seen {
			seen = append(seen, v)
		}
		slices.Sort(seen)
		ckpt.Slice(c, &seen, func(v *int32) { ckpt.Int(c, v) })
		if c.Reading() {
			for _, v := range seen {
				ln.seen[v] = struct{}{}
			}
			e.launches[*s] = ln
			e.originActive[ln.origin] = *s
		}
	})
	if c.Reading() {
		e.active = 0
	}
	for i := range e.chq {
		if c.Reading() {
			for _, pr := range e.chq[i] {
				e.pool.PutProbe(pr)
			}
		}
		ckpt.Slice(c, &e.chq[i], func(pp **message.Probe) {
			if c.Reading() {
				*pp = e.pool.NewProbe(0, 0, 0, 0)
				e.active++
			}
			pr := *pp
			ckpt.Int(c, &pr.Origin)
			ckpt.Int(c, &pr.Target)
			seq(&pr.Seq)
			c.Time(&pr.Born)
		})
	}
	if c.Unhashed() {
		for _, p := range []*int64{&e.seq, &e.Launched, &e.Issued, &e.Retired, &e.Declared, &e.Dropped,
			&e.FlitsCharged, &e.DeclareLatencySum, &e.LastDeclareLatency} {
			ckpt.Int(c, p)
		}
	}
}
