// Package deadlock implements the channel-wait-for-graph (CWG) deadlock
// observer used for characterization, modelled on FlexSim 1.2's detector as
// described in Section 4.1: resource wait-for relationships across virtual
// channels and network-interface queues are examined periodically (every 50
// cycles by default), and a deadlock is a knot — a set of blocked resources
// from which no progressing resource is reachable along wait-for edges. The
// observer is independent of the handling schemes' own detectors: strict
// avoidance runs should report zero knots (a correctness check), while
// recovery runs use it to count deadlock frequency.
package deadlock

import (
	"fmt"
	"math/bits"

	"repro/internal/message"
	"repro/internal/netiface"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Host exposes the simulated system's state to the detector.
type Host interface {
	// Topology returns the torus.
	Topology() *topology.Torus
	// AllChannels returns every physical channel.
	AllChannels() []*router.Channel
	// AllNIs returns every network interface, indexed by endpoint.
	AllNIs() []*netiface.NI
	// RouteCandidates returns the routing candidates for pkt at router r.
	RouteCandidates(r topology.NodeID, pkt *message.Packet) []routing.PortVC
	// RouterByID returns the router with the given ID.
	RouterByID(id topology.NodeID) *router.Router
	// QueueOf maps a message to its NI queue index.
	QueueOf(m *message.Message) int
	// SubQueueOf returns the queue index and count of m's subordinates,
	// ok=false for terminating messages.
	SubQueueOf(m *message.Message) (q, count int, ok bool)
	// InjectVCsOf returns the injection VC indices allowed for m.
	InjectVCsOf(m *message.Message) []int
	// VCsPerChannel returns the (uniform) virtual channel count.
	VCsPerChannel() int
}

// bitset is a fixed-size vertex set, one bit per CWG vertex.
type bitset []uint64

func (b bitset) has(v int32) bool { return b[v>>6]>>(uint(v)&63)&1 != 0 }
func (b bitset) set(v int32)      { b[v>>6] |= 1 << (uint(v) & 63) }

// Detector scans a Host for knots.
type Detector struct {
	host Host

	// layout is the shared CWG vertex numbering (see waitedges.go).
	layout Layout

	// Scan scratch. The detector owns it and every scan reuses it, so a
	// steady-state scan allocates nothing. Only the bitsets are sized by the
	// vertex count (Total/64 words each); everything else is indexed by
	// blocked-vertex rank and grows to the largest blocked set seen, which
	// keeps the heap a retained network pins flat.
	//
	// blocked holds this scan's blocked vertices and rankBase[w] the number
	// of them below word w, so rank(v) is a popcount away. verts lists the
	// blocked vertices ascending (index = rank). The wait-for edges of rank
	// r are etgt[estart[r]:estart[r+1]]: vertex IDs as classified, rewritten
	// by findKnot to target ranks (-1 for an unblocked target). rstart/rsrc
	// are the reverse CSR over blocked→blocked edges, escaped the per-rank
	// escape verdict, queue the BFS worklist and edges the classifier's
	// scratch. parent and counted serve component counting and are touched
	// only by scans that find a knot.
	blocked  bitset
	rankBase []int32
	verts    []int32
	estart   []int32
	etgt     []int32
	rstart   []int32
	rsrc     []int32
	escaped  []bool
	queue    []int32
	edges    []int
	parent   []int32
	counted  []bool

	// The deadlocked set, double-buffered: locked/lockedList are the most
	// recent scan's verdict (bitset for membership tests, ascending vertex
	// list for walking it) and prevLock/prevList the one before, which the
	// next scan swaps in and compares against. The bitset always equals the
	// list, and a non-empty list is "that scan had a knot".
	locked, prevLock     bitset
	lockedList, prevList []int32

	// Scans counts performed scans; Deadlocks counts newly deadlocked
	// knot components across scans; LastDeadlocked is the resource count
	// of the most recent scan's deadlocked set.
	Scans          int64
	Deadlocks      int64
	LastDeadlocked int

	// Forensics, when set, makes each scan retain the deadlocked wait-for
	// subgraph as a resource chain retrievable via KnotChain — the raw
	// material for deadlock-episode records. Off by default: building the
	// chain allocates per knotted scan.
	Forensics bool
	lastChain []obs.WaitResource
}

// NewDetector builds a detector over the host.
func NewDetector(h Host) *Detector {
	d := &Detector{host: h, layout: LayoutOf(h)}
	words := (d.layout.Total + 63) / 64
	d.blocked = make(bitset, words)
	d.locked = make(bitset, words)
	d.prevLock = make(bitset, words)
	d.rankBase = make([]int32, words)
	return d
}

// Layout exposes the detector's vertex numbering (shared with the probe
// engine and the independent rebuild in internal/check).
func (d *Detector) Layout() Layout { return d.layout }

// consumerRouter returns the router that consumes flits from a channel (for
// link channels the downstream router; for injection channels the local
// router). Ejection channels are consumed by the NI and handled separately.
func consumerRouter(ch *router.Channel) topology.NodeID {
	if ch.Kind == router.KindLink {
		return ch.Dst
	}
	return ch.Src
}

// ScanAt inspects the system and returns the number of resources currently
// in a knot and the number of newly formed knot components since the
// previous scan. now is the current cycle, which lets forensics report how
// long each deadlocked virtual channel has gone without movement; -1 when
// unknown.
//
// Cost is O(channels + occupied VCs + NI queues + wait-for edges of blocked
// resources): only occupied resources are classified, the knot is computed
// on the blocked subgraph alone, and the VC flags and component count are
// touched only when this scan or the previous one found a knot. The common
// scan — nothing blocked, or everything blocked escaping — allocates nothing
// and writes nothing outside the detector.
func (d *Detector) ScanAt(now int64) (deadlockedResources, newKnots int) {
	d.classify()
	d.lockedList, d.prevList = d.prevList[:0], d.lockedList
	if len(d.verts) > 0 {
		d.findKnot()
	}
	deadlockedResources = len(d.lockedList)
	if deadlockedResources > 0 || len(d.prevList) > 0 {
		d.locked, d.prevLock = d.prevLock, d.locked
		newKnots = d.publish()
	}
	d.Scans++
	d.Deadlocks += int64(newKnots)
	d.LastDeadlocked = deadlockedResources
	if d.Forensics {
		d.lastChain = d.buildChain(now)
	}
	return deadlockedResources, newKnots
}

// classify records this scan's blocked vertices and their wait-for edges
// (still as vertex IDs) through the shared derivation in waitedges.go.
func (d *Detector) classify() {
	clear(d.blocked)
	d.verts, d.estart, d.etgt = d.verts[:0], d.estart[:0], d.etgt[:0]
	d.edges = forEachBlocked(d.host, d.layout, d.edges, func(u int, waits []int) {
		d.blocked.set(int32(u))
		d.verts = append(d.verts, int32(u))
		d.estart = append(d.estart, int32(len(d.etgt)))
		for _, v := range waits {
			d.etgt = append(d.etgt, int32(v))
		}
	})
	d.estart = append(d.estart, int32(len(d.etgt)))
}

// rank returns the position of blocked vertex v in verts.
func (d *Detector) rank(v int32) int32 {
	w := d.blocked[v>>6] & (1<<(uint(v)&63) - 1)
	return d.rankBase[v>>6] + int32(bits.OnesCount64(w))
}

// findKnot computes the knot on the blocked subgraph and appends its
// vertices, ascending, to lockedList. A blocked resource escapes the knot if
// some wait-for path reaches a non-blocked resource: one that progresses
// this cycle, but also any resource that is simply not stuck (an empty VC
// that an in-flight worm will advance into, an idle queue, ...). Unblocked
// vertices have no outgoing edges, so that is: a blocked vertex escapes iff
// it waits on an unblocked vertex or on an escaping one. The former seed a
// reverse BFS over the blocked→blocked edges; only waiting chains confined
// entirely to blocked resources remain.
func (d *Detector) findKnot() {
	nb := len(d.verts)
	n := int32(0)
	for w, word := range d.blocked {
		d.rankBase[w] = n
		n += int32(bits.OnesCount64(word))
	}

	// Rewrite edge targets to ranks, seed the BFS, and count in-degrees two
	// slots ahead (rstart[t+2]) so the fill below can use rstart[t+1] as
	// t's cursor and leave rstart[t]:rstart[t+1] as t's finished range.
	d.escaped = zeroed(d.escaped, nb)
	d.rstart = zeroed(d.rstart, nb+2)
	d.queue = d.queue[:0]
	for r := 0; r < nb; r++ {
		for i := d.estart[r]; i < d.estart[r+1]; i++ {
			v := d.etgt[i]
			if !d.blocked.has(v) {
				d.etgt[i] = -1
				if !d.escaped[r] {
					d.escaped[r] = true
					d.queue = append(d.queue, int32(r))
				}
				continue
			}
			t := d.rank(v)
			d.etgt[i] = t
			d.rstart[t+2]++
		}
	}
	for t := 0; t < nb; t++ {
		d.rstart[t+2] += d.rstart[t+1]
	}
	d.rsrc = zeroed(d.rsrc, int(d.rstart[nb+1]))
	for r := 0; r < nb; r++ {
		for _, t := range d.etgt[d.estart[r]:d.estart[r+1]] {
			if t >= 0 {
				d.rsrc[d.rstart[t+1]] = int32(r)
				d.rstart[t+1]++
			}
		}
	}

	for head := 0; head < len(d.queue); head++ {
		t := d.queue[head]
		for _, r := range d.rsrc[d.rstart[t]:d.rstart[t+1]] {
			if !d.escaped[r] {
				d.escaped[r] = true
				d.queue = append(d.queue, r)
			}
		}
	}
	for r, esc := range d.escaped {
		if !esc {
			d.lockedList = append(d.lockedList, d.verts[r])
		}
	}
}

// publish moves the VC knot flags from the previous scan's deadlocked set to
// this one's — the progressive recovery engine targets genuinely deadlocked
// packets through them — fills the locked bitset, and returns the number of
// newly formed knot components: weakly connected components of the
// deadlocked subgraph containing at least one resource that was not
// deadlocked in the previous scan. Only scans with a knot on either side
// come here.
func (d *Detector) publish() (newKnots int) {
	l := d.layout
	for _, v := range d.prevList {
		if int(v) < l.NumVC {
			l.vcAt(d.host, int(v)).Knotted = false
		}
	}
	clear(d.locked)
	for _, v := range d.lockedList {
		d.locked.set(v)
		if int(v) < l.NumVC {
			l.vcAt(d.host, int(v)).Knotted = true
		}
	}
	if len(d.lockedList) == 0 {
		return 0
	}

	// Union-find over ranks. Every target of a deadlocked vertex is itself
	// deadlocked (an unblocked or escaping target would have let it
	// escape), so its edges need no filtering.
	nb := len(d.verts)
	d.parent = zeroed(d.parent, nb)
	for r := range d.parent {
		d.parent[r] = int32(r)
	}
	for r := 0; r < nb; r++ {
		if d.escaped[r] {
			continue
		}
		a := d.find(int32(r))
		for _, t := range d.etgt[d.estart[r]:d.estart[r+1]] {
			if b := d.find(t); b != a {
				d.parent[b] = a
			}
		}
	}
	d.counted = zeroed(d.counted, nb)
	for r := 0; r < nb; r++ {
		if d.escaped[r] || d.prevLock.has(d.verts[r]) {
			continue
		}
		if root := d.find(int32(r)); !d.counted[root] {
			d.counted[root] = true
			newKnots++
		}
	}
	return newKnots
}

// find returns r's component root, halving the path as it climbs.
func (d *Detector) find(r int32) int32 {
	for d.parent[r] != r {
		d.parent[r] = d.parent[d.parent[r]]
		r = d.parent[r]
	}
	return r
}

// zeroed returns s resized to n zero elements, reallocating only to grow.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// KnotChain returns the most recent scan's deadlocked wait chain (nil when
// the last scan found no knot or Forensics is off). Entries are in vertex
// order; WaitsFor indices refer to positions within the returned slice.
func (d *Detector) KnotChain() []obs.WaitResource { return d.lastChain }

// buildChain snapshots the deadlocked subgraph as self-describing resources:
// location, occupant message identity, blocked duration, and wait-for edges
// remapped onto chain indices.
func (d *Detector) buildChain(now int64) []obs.WaitResource {
	if len(d.lockedList) == 0 {
		return nil
	}
	h, l := d.host, d.layout
	tor := h.Topology()
	// pos maps a blocked rank to its chain index, -1 outside the knot.
	pos := make([]int, len(d.verts))
	n := 0
	for r, esc := range d.escaped {
		pos[r] = -1
		if !esc {
			pos[r] = n
			n++
		}
	}
	chain := make([]obs.WaitResource, n)
	for r, vtx := range d.verts {
		if pos[r] < 0 {
			continue
		}
		v := int(vtx)
		res := obs.WaitResource{Endpoint: -1, Queue: -1, VC: -1, BlockedFor: -1}
		var m *message.Message
		switch {
		case v < l.NumVC:
			vc := l.vcAt(h, v)
			res.Kind, res.Desc = "vc", vc.String()
			res.Router, res.VC = int(consumerRouter(vc.Ch)), int(vc.Index)
			if now >= 0 {
				res.BlockedFor = now - vc.LastMove
			}
			if f, ok := vc.Front(); ok {
				res.Pkt = int64(f.Pkt.ID)
				m = f.Pkt.Msg
			}
		case v < l.OutBase:
			ep, q, _ := l.InQueueOf(v)
			res.Kind, res.Desc = "inq", fmt.Sprintf("ni%d.in%d", ep, q)
			res.Router, res.Endpoint, res.Queue = int(tor.EndpointByID(ep).Router), ep, q
			m, _ = h.AllNIs()[ep].Head(q)
		default:
			ep, q, _ := l.OutQueueOf(v)
			res.Kind, res.Desc = "outq", fmt.Sprintf("ni%d.out%d", ep, q)
			res.Router, res.Endpoint, res.Queue = int(tor.EndpointByID(ep).Router), ep, q
			m, _, _, _ = h.AllNIs()[ep].OutHead(q)
		}
		if m != nil {
			res.Txn = int64(m.Txn)
			res.MsgType = m.Type.String()
			res.Src, res.Dst = m.Src, m.Dst
		}
		for _, t := range d.etgt[d.estart[r]:d.estart[r+1]] {
			if j := pos[t]; j >= 0 {
				res.WaitsFor = append(res.WaitsFor, j)
			}
		}
		chain[pos[r]] = res
	}
	return chain
}
