// Package traffic generates workloads for the simulator. Synthetic sources
// implement the paper's open-loop methodology: each node generates original
// request messages (m1, the first type of every dependency chain) by a
// Bernoulli process at the applied rate, with uniformly random homes and
// third parties ("Message Traffic Patterns: Random", Table 2); all
// subordinate message types are then "generated automatically upon
// completion of servicing messages at end-nodes" by the protocol engine.
package traffic

import (
	"fmt"
	"math"

	"repro/internal/ckpt"
	"repro/internal/netiface"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// Source produces new transactions for endpoints each cycle.
type Source interface {
	// Generate is called once per cycle with every endpoint's NI, indexed by
	// endpoint; implementations enqueue any new requests on the requester's
	// NI, visiting endpoints in ascending order (transaction IDs follow that
	// order). Calls must be consecutive — each now is the previous one plus
	// one, from whatever cycle the first call (or a restored state) names —
	// until generation stops for good: a source may know its arrivals ahead
	// of time, and one that does panics on a gap rather than lose them.
	Generate(now int64, nis []*netiface.NI)
	// TxnCompleted notifies the source that one of the requester's
	// transactions finished, releasing its preallocated MSHR.
	TxnCompleted(requester int)
	// Active reports whether the source may still produce work (lets
	// finite sources such as traces terminate runs early).
	Active(now int64) bool
}

// Synthetic is the uniform-random Bernoulli source.
type Synthetic struct {
	// Rate is the request-generation probability per node per cycle.
	Rate float64
	// Endpoints is the number of processing nodes.
	Endpoints int
	// MaxOutstanding bounds in-flight transactions per requester: a node
	// must hold a free MSHR (preallocated sink resources for the
	// terminating reply) before issuing a request, the Section 3
	// assumption that also underpins the Origin2000's reply-network
	// preallocation ("M outstanding messages allowed by each node").
	// Zero means unlimited.
	MaxOutstanding int
	// Engine and Table create and register transactions.
	Engine *protocol.Engine
	Table  *protocol.Table
	// Generated counts created transactions; Throttled counts generation
	// opportunities suppressed by the outstanding limit.
	Generated int64
	Throttled int64

	outstanding []int
	rngs        []sim.RNG
	thirdsBuf   []int // scratch for NewTransaction (the engine copies it)

	// Each endpoint's Bernoulli draws are made ahead, from its own stream,
	// up to its next success or lookAhead failures, whichever comes first:
	// nextAt[ep] is the cycle that run of draws ends at and hit[ep] whether
	// it ends in an arrival. Every draw for a cycle before nextAt[ep] has
	// been made and failed; none for a later cycle has been made. soonest is
	// the minimum of nextAt, so a cycle on which nothing arrives costs one
	// comparison. next is the cycle Generate must be called with, -1 before
	// the first call (which starts the look-ahead at its own now).
	nextAt  []int64
	hit     []bool
	soonest int64
	next    int64
}

// lookAhead bounds how far ahead of the present an endpoint's stream is
// drawn, so that a vanishing rate costs one call per endpoint per lookAhead
// cycles and not an unbounded loop.
const lookAhead = 1024

// NewSynthetic builds a synthetic source with one RNG stream per endpoint so
// endpoint behaviour is independent of stepping order.
func NewSynthetic(rate float64, endpoints int, engine *protocol.Engine, table *protocol.Table, rng *sim.RNG) *Synthetic {
	s := &Synthetic{Rate: rate, Endpoints: endpoints, Engine: engine, Table: table, next: -1}
	s.rngs = make([]sim.RNG, endpoints)
	for i := range s.rngs {
		s.rngs[i] = *sim.NewRNG(rng.Uint64()) // rng.Split(), stored by value
	}
	s.outstanding = make([]int, endpoints)
	s.nextAt = make([]int64, endpoints)
	s.hit = make([]bool, endpoints)
	return s
}

// Generate implements Source. Each endpoint's stream yields the same values
// in the same order as one Bernoulli draw per cycle would: failures, the
// success, that transaction's own draws (made here, at the arrival cycle,
// because whether it is throttled is only known now), then the next run of
// failures.
func (s *Synthetic) Generate(now int64, nis []*netiface.NI) {
	if now != s.next {
		if s.next >= 0 {
			panic(fmt.Sprintf("traffic: Generate(%d) after cycle %d: arrivals drawn ahead would be lost", now, s.next-1))
		}
		for ep := range s.nextAt {
			s.draw(ep, now)
		}
		s.soonest = now
	}
	s.next = now + 1
	if now < s.soonest {
		return
	}
	soonest := int64(math.MaxInt64)
	for ep, at := range s.nextAt {
		if at == now {
			if s.hit[ep] {
				s.arrive(now, ep, nis[ep])
			}
			at = s.draw(ep, now+1)
		}
		soonest = min(soonest, at)
	}
	s.soonest = soonest
}

// Checkpoint names the source's run state (see package ckpt), which must
// rewind with the rest of the network. The streams have been drawn past the
// present, so where each endpoint's look-ahead stopped (nextAt, hit) and the
// cycle the source expects next are as canonical as the streams themselves: a
// restore without them would replay different arrivals.
func (s *Synthetic) Checkpoint(c *ckpt.C) {
	for ep := range s.rngs {
		ckpt.Int(c, &s.outstanding[ep])
		s.rngs[ep].Checkpoint(c)
		c.Time(&s.nextAt[ep])
		c.Bool(&s.hit[ep])
	}
	c.Time(&s.next)
	if c.Reading() {
		s.soonest = s.next // the next Generate recomputes it
	}
	if c.Unhashed() {
		ckpt.Int(c, &s.Generated)
		ckpt.Int(c, &s.Throttled)
	}
}

// draw runs endpoint ep's stream forward from cycle from, the first cycle it
// has not drawn for, and returns the cycle it stopped at.
func (s *Synthetic) draw(ep int, from int64) int64 {
	k, hit := s.rngs[ep].FirstBelow(s.Rate, lookAhead)
	if !hit {
		k-- // the last cycle drawn for; the look-ahead resumes after it
	}
	s.nextAt[ep], s.hit[ep] = from+int64(k), hit
	return from + int64(k)
}

// arrive handles a Bernoulli success at endpoint ep.
func (s *Synthetic) arrive(now int64, ep int, ni *netiface.NI) {
	if s.MaxOutstanding > 0 && s.outstanding[ep] >= s.MaxOutstanding {
		s.Throttled++
		return
	}
	txn := s.NewTransaction(ep, &s.rngs[ep], now)
	ni.EnqueueSource(s.Engine.FirstMessage(txn, now))
	s.outstanding[ep]++
	s.Generated++
}

// TxnCompleted implements Source.
func (s *Synthetic) TxnCompleted(requester int) {
	if s.outstanding[requester] > 0 {
		s.outstanding[requester]--
	}
}

// Outstanding returns the requester's current in-flight transaction count.
func (s *Synthetic) Outstanding(requester int) int { return s.outstanding[requester] }

// NewTransaction rolls a transaction for a requester: template by pattern
// weight, home uniformly among other endpoints, third parties uniformly
// among endpoints distinct from the home (an owner or sharer may coincide
// with neither or may be any other node; it only must differ from the home,
// which would otherwise answer directly).
func (s *Synthetic) NewTransaction(requester int, rng *sim.RNG, now int64) *protocol.Transaction {
	tmpl := s.Engine.PickTemplate(rng.Float64())
	home := requester
	if s.Endpoints > 1 {
		home = rng.IntnExcept(s.Endpoints, requester)
	}
	_, width := tmpl.FanoutIndex()
	for cap(s.thirdsBuf) < width {
		s.thirdsBuf = append(s.thirdsBuf[:cap(s.thirdsBuf)], 0)
	}
	thirds := s.thirdsBuf[:width]
	for b := range thirds {
		t := home
		if s.Endpoints > 1 {
			t = rng.IntnExcept(s.Endpoints, home)
		}
		thirds[b] = t
	}
	txn := s.Engine.NewTransaction(tmpl, requester, home, thirds, now)
	s.Table.Add(txn)
	return txn
}

// Active implements Source: synthetic sources never exhaust.
func (s *Synthetic) Active(int64) bool { return true }
