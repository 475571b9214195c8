package network

import (
	"slices"
	"sync"

	"repro/internal/message"
	"repro/internal/routing"
	"repro/internal/topology"
)

// routeCombo is one (routing mode, VC set) pair: what a message type's
// candidate rows depend on besides the grid.
type routeCombo struct {
	mode routing.Mode
	set  routing.VCSet
}

func (c *routeCombo) equal(d *routeCombo) bool {
	return c.mode == d.mode && slices.Equal(c.set.Escape, d.set.Escape) && slices.Equal(c.set.Adaptive, d.set.Adaptive)
}

// candShape is everything a healthy candidate table depends on: the grid
// (radix, bristling, wrap) and the scheme's deduplicated routing combos, in
// the order of their first (type, backoff). Schemes or patterns that reach
// the same combos — PR under every pattern — have equal shapes. A value
// fits on the stack, so comparing one against the memo allocates nothing.
type candShape struct {
	radix     []int
	bristling int
	wrap      bool
	ncombos   int
	combos    [int(message.NumTypes) * 2]routeCombo
}

func (s *candShape) equal(o *candShape) bool {
	if s.bristling != o.bristling || s.wrap != o.wrap || s.ncombos != o.ncombos || !slices.Equal(s.radix, o.radix) {
		return false
	}
	for i := range s.combos[:s.ncombos] {
		if !s.combos[i].equal(&o.combos[i]) {
			return false
		}
	}
	return true
}

// clone deep-copies the shape, so a memo key shares no slice with the network
// or scheme it came from.
func (s *candShape) clone() candShape {
	c := *s
	c.radix = slices.Clone(s.radix)
	for i := range c.combos[:c.ncombos] {
		c.combos[i].set.Escape = slices.Clone(s.combos[i].set.Escape)
		c.combos[i].set.Adaptive = slices.Clone(s.combos[i].set.Adaptive)
	}
	return c
}

// tableShape deduplicates the scheme's (mode, VC set) combos over every
// (type, backoff), records in candCombo which combo each one uses, and
// returns the table's shape.
func (n *Network) tableShape() candShape {
	s := candShape{radix: n.Torus.Radix, bristling: n.Torus.Bristling, wrap: n.Torus.Wrap}
	for t := 0; t < int(message.NumTypes); t++ {
		for bo := 0; bo < 2; bo++ {
			c := routeCombo{n.Scheme.RoutingMode(message.Type(t), bo == 1), n.Scheme.VCSetFor(message.Type(t), bo == 1)}
			idx := 0
			for idx < s.ncombos && !s.combos[idx].equal(&c) {
				idx++
			}
			if idx == s.ncombos {
				s.combos[idx] = c
				s.ncombos++
			}
			n.candCombo[t*2+bo] = int8(idx)
		}
	}
	return s
}

// setCandTable points the network at its candidate table. A network without
// a health mask shares the one table of its shape held by the process-wide
// memo; one with a mask — after KillLink, or restored from a faulted
// snapshot — gets a private table built under it, and the memo never sees
// it.
func (n *Network) setCandTable() {
	s := n.tableShape()
	if n.Health != nil {
		n.candSlab, n.candOff = buildCandTable(n.Health, n.Torus, s.combos[:s.ncombos])
		return
	}
	n.candSlab, n.candOff = candTables.get(&s, n.Torus)
}

// buildCandTable computes the candidate list for every (routing combo,
// destination endpoint, router) triple on t under link health h. Many message
// types share one (mode, VC set) combo under a given scheme — all of them
// under PR — so the table is deduplicated by combo. One pass appends the
// routing function's output straight into a slab sized from each combo's
// longest possible rows (routing.MaxCandidates), which therefore never grows:
// two allocations however large the network, instead of one per row. It
// reads nothing but its arguments; setCandTable decides whether the result
// is shared.
func buildCandTable(h *routing.Health, t *topology.Torus, combos []routeCombo) ([]routing.PortVC, []uint32) {
	eps, nr := t.Endpoints(), t.Routers()
	bound := 0
	for _, c := range combos {
		// Each destination endpoint has one router it is local to.
		atDst, routed := routing.MaxCandidates(t, c.mode, c.set)
		bound += eps * (atDst + (nr-1)*routed)
	}
	slab := make([]routing.PortVC, 0, bound)
	off := make([]uint32, 1, len(combos)*eps*nr+1)
	for _, c := range combos {
		for d := 0; d < eps; d++ {
			dst := t.EndpointByID(d)
			for r := 0; r < nr; r++ {
				slab = routing.AppendCandidatesHealth(slab, h, t, c.mode, topology.NodeID(r), dst.Router, dst.Local, c.set)
				off = append(off, uint32(len(slab)))
			}
		}
	}
	return slab, off
}

// candTables is the process-wide memo of healthy candidate tables, one per
// shape. Its tables are immutable: networks read their rows concurrently and
// nothing writes them after buildCandTable returns.
var candTables candMemo

// candMemo holds tables least recently used first and evicts from the front,
// so together they never hold more than MaxSystemSlots table slots (offsets
// plus slab capacity). Config.checkSize counts one table inside that bound,
// so the table of any admitted configuration fits.
type candMemo struct {
	mu      sync.Mutex
	entries []*candEntry
	slots   int
}

type candEntry struct {
	shape candShape
	slab  []routing.PortVC
	off   []uint32
	slots int
}

// get returns the table of shape s on t, building it on a miss. The build
// runs outside the lock; of two goroutines that miss on one shape at once,
// the first to insert wins and the other returns the winner's table, so every
// network of a shape held by the memo reads the same slab.
func (m *candMemo) get(s *candShape, t *topology.Torus) ([]routing.PortVC, []uint32) {
	m.mu.Lock()
	e := m.lookup(s)
	m.mu.Unlock()
	if e != nil {
		return e.slab, e.off
	}
	slab, off := buildCandTable(nil, t, s.combos[:s.ncombos])
	e = &candEntry{shape: s.clone(), slab: slab, off: off, slots: len(off) + cap(slab)}
	m.mu.Lock()
	defer m.mu.Unlock()
	if won := m.lookup(s); won != nil {
		return won.slab, won.off
	}
	m.insert(e)
	return slab, off
}

// lookup returns the entry of shape s, moved to the most recently used end,
// or nil. Called with mu held.
func (m *candMemo) lookup(s *candShape) *candEntry {
	for i, e := range m.entries {
		if e.shape.equal(s) {
			copy(m.entries[i:], m.entries[i+1:])
			m.entries[len(m.entries)-1] = e
			return e
		}
	}
	return nil
}

// insert adds e as the most recently used entry, first evicting the least
// recently used ones until it fits. Called with mu held.
func (m *candMemo) insert(e *candEntry) {
	k := 0
	for ; k < len(m.entries) && m.slots+e.slots > MaxSystemSlots; k++ {
		m.slots -= m.entries[k].slots
	}
	m.entries = append(slices.Delete(m.entries, 0, k), e)
	m.slots += e.slots
}
