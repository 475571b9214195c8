package mc

import (
	"repro/internal/ckpt"
	"repro/internal/netiface"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// script is the explorer-controlled finite traffic source. It draws no
// randomness: the explorer decides release cycles (the released gates) and
// Generate injects a released transaction at its requester's next
// generation slot. Everything else about the transaction — template,
// endpoints, third parties — is fixed by the spec, so a (config, script,
// schedule) triple determines a run completely.
type script struct {
	specs  []TxnSpec
	engine *protocol.Engine
	table  *protocol.Table

	released []bool
	injected []bool
}

// factory adapts the script to network.NewWithSource.
func (s *script) factory() func(e *protocol.Engine, t *protocol.Table, rng *sim.RNG, endpoints int) traffic.Source {
	return func(e *protocol.Engine, t *protocol.Table, _ *sim.RNG, _ int) traffic.Source {
		s.engine = e
		s.table = t
		s.released = make([]bool, len(s.specs))
		s.injected = make([]bool, len(s.specs))
		return s
	}
}

// Generate implements traffic.Source: released, not-yet-injected specs enter
// their requester's source queue, endpoint by endpoint and in spec order
// within one, which fixes the transaction IDs.
func (s *script) Generate(now int64, nis []*netiface.NI) {
	for endpoint, ni := range nis {
		for i := range s.specs {
			sp := &s.specs[i]
			if !s.released[i] || s.injected[i] || sp.Requester != endpoint {
				continue
			}
			tmpl := s.engine.Pattern.Templates[sp.Template]
			txn := s.engine.NewTransaction(tmpl, sp.Requester, sp.Home, sp.Thirds, now)
			s.table.Add(txn)
			ni.EnqueueSource(s.engine.FirstMessage(txn, now))
			s.injected[i] = true
		}
	}
}

// TxnCompleted implements traffic.Source.
func (s *script) TxnCompleted(int) {}

// Active implements traffic.Source.
func (s *script) Active(int64) bool { return !s.done() }

func (s *script) done() bool {
	for _, inj := range s.injected {
		if !inj {
			return false
		}
	}
	return true
}

// Checkpoint names the script's state, the release and injection gates, for
// the network's checkpoint walk (see package ckpt).
func (s *script) Checkpoint(c *ckpt.C) {
	for i := range s.specs {
		c.Bool(&s.released[i])
		c.Bool(&s.injected[i])
	}
}
