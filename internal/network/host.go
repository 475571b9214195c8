package network

import (
	"repro/internal/deadlock"
	"repro/internal/message"
	"repro/internal/netiface"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/topology"
)

// The Network implements deadlock.Host so the CWG observer can walk its
// resources.

// Topology implements deadlock.Host.
func (n *Network) Topology() *topology.Torus { return n.Torus }

// AllChannels implements deadlock.Host.
func (n *Network) AllChannels() []*router.Channel { return n.Channels }

// AllNIs implements deadlock.Host.
func (n *Network) AllNIs() []*netiface.NI { return n.NIs }

// RouteCandidates implements deadlock.Host.
func (n *Network) RouteCandidates(r topology.NodeID, pkt *message.Packet) []routing.PortVC {
	return n.Candidates(r, pkt)
}

// RouterByID implements deadlock.Host.
func (n *Network) RouterByID(id topology.NodeID) *router.Router { return n.Routers[id] }

// QueueOf implements deadlock.Host.
func (n *Network) QueueOf(m *message.Message) int {
	return n.Scheme.QueueIndex(m.Type, m.Backoff || m.Nack)
}

// SubQueueOf implements deadlock.Host.
func (n *Network) SubQueueOf(m *message.Message) (int, int, bool) {
	txn := n.Table.Get(m.Txn)
	typ, count, _, ok := n.Engine.NextStepInfo(txn, m)
	if !ok {
		return 0, 0, false
	}
	return n.Scheme.QueueIndex(typ, false), count, true
}

// InjectVCsOf implements deadlock.Host and backs the NI InjectVCs hook,
// serving the precomputed per-(type, backoff) VC index lists.
func (n *Network) InjectVCsOf(m *message.Message) []int {
	b := 0
	if m.Backoff || m.Nack {
		b = 1
	}
	return n.injectVCs[m.Type][b]
}

// VCsPerChannel implements deadlock.Host.
func (n *Network) VCsPerChannel() int { return n.Cfg.VCs }

// attachDetector installs the periodic CWG scan when enabled.
func (n *Network) attachDetector() {
	if n.Cfg.CWGInterval > 0 {
		n.Detector = deadlock.NewDetector(n)
	}
}

// scan runs the periodic CWG scan. It only observes: knots are counted and
// traced, and the scheme's recovery is triggered elsewhere.
func (n *Network) scan(now int64) {
	locked, fresh := n.Detector.ScanAt(now)
	if n.inWindow(now) {
		n.Stats.CWGScans++
		n.Stats.CWGDeadlocks += int64(fresh)
	}
	if n.bus != nil {
		n.bus.Emit(obs.Event{Cycle: now, Kind: obs.KindCWGScan, Node: -1,
			Arg: int64(locked), Aux: int64(fresh)})
		if fresh > 0 {
			n.bus.Emit(obs.Event{Cycle: now, Kind: obs.KindCWGDeadlock,
				Node: -1, Arg: int64(locked), Aux: int64(fresh)})
		}
	}
}
