package tracegen

import (
	"repro/internal/coherence"
	"repro/internal/netiface"
	"repro/internal/protocol"
)

// Player replays a trace through the MSI directory engine as a traffic
// source: each access either hits in the replayed L1 or produces one
// coherence transaction injected at the requesting node. Processors stall
// when their MSHRs (outstanding transactions) are exhausted, which skews the
// replay clock exactly the way network backpressure skews a real execution.
type Player struct {
	Trace *Trace
	Sys   *coherence.System
	// MaxOutstanding is the per-cpu MSHR count (stall threshold).
	MaxOutstanding int
	// MaxPerCycle bounds accesses replayed per cpu per cycle.
	MaxPerCycle int

	engine *protocol.Engine
	table  *protocol.Table

	perCPU      [][]Record
	idx         []int
	outstanding []int

	// Transactions counts coherence transactions injected; Hits counts
	// replayed L1 hits; LocalDirect counts direct-reply transactions whose
	// home is the requester itself (no network traffic needed).
	Transactions int64
	Hits         int64
	LocalDirect  int64
}

// NewPlayer builds a player over a trace. The engine and table come from the
// network the player will drive (NewNetwork builds both together).
func NewPlayer(tr *Trace, engine *protocol.Engine, table *protocol.Table, endpoints int) (*Player, error) {
	sys, err := coherence.New(coherence.DefaultConfig(endpoints))
	if err != nil {
		return nil, err
	}
	p := &Player{
		Trace: tr, Sys: sys,
		MaxOutstanding: 8, MaxPerCycle: 8,
		engine: engine, table: table,
		perCPU:      make([][]Record, endpoints),
		idx:         make([]int, endpoints),
		outstanding: make([]int, endpoints),
	}
	for _, r := range tr.Records {
		if int(r.CPU) < endpoints {
			p.perCPU[r.CPU] = append(p.perCPU[r.CPU], r)
		}
	}
	return p, nil
}

// Generate implements traffic.Source.
func (p *Player) Generate(now int64, nis []*netiface.NI) {
	for endpoint, ni := range nis {
		p.replay(now, endpoint, ni)
	}
}

// replay advances one cpu's cursor through the records due by now.
func (p *Player) replay(now int64, endpoint int, ni *netiface.NI) {
	recs := p.perCPU[endpoint]
	done := 0
	for p.idx[endpoint] < len(recs) && done < p.MaxPerCycle {
		r := recs[p.idx[endpoint]]
		if r.Time > now {
			return
		}
		// A miss needs a free MSHR before the processor can proceed.
		if p.outstanding[endpoint] >= p.MaxOutstanding {
			return
		}
		out := p.Sys.Access(endpoint, r.Op, r.Addr)
		p.idx[endpoint]++
		if out.Category == coherence.Hit {
			p.Hits++
			continue
		}
		done++
		if out.Category == coherence.DirectReply && out.Home == endpoint {
			// Locally homed direct access: satisfied by the node's own
			// directory without network traffic.
			p.LocalDirect++
			continue
		}
		tmpl, thirds := out.Template()
		txn := p.engine.NewTransaction(tmpl, endpoint, out.Home, thirds, now)
		p.table.Add(txn)
		ni.EnqueueSource(p.engine.FirstMessage(txn, now))
		p.outstanding[endpoint]++
		p.Transactions++
	}
}

// TxnCompleted implements traffic.Source.
func (p *Player) TxnCompleted(requester int) {
	if p.outstanding[requester] > 0 {
		p.outstanding[requester]--
	}
}

// Active implements traffic.Source: the player is done when every cpu's
// cursor is exhausted and no transactions remain in flight.
func (p *Player) Active(int64) bool {
	for ep, recs := range p.perCPU {
		if p.idx[ep] < len(recs) || p.outstanding[ep] > 0 {
			return true
		}
	}
	return false
}
