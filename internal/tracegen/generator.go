package tracegen

import (
	"repro/internal/coherence"
	"repro/internal/sim"
)

// Generator synthesizes an application trace. It keeps a mirror of the MSI
// directory state it induces so it can steer each miss to the response
// category (direct / invalidation / forwarding) the application's Table 1
// mix calls for: invalidations consume lines it previously placed in the
// shared state, forwardings consume lines in the modified state, and direct
// replies replenish whichever pool runs low. Replaying the resulting raw
// accesses through the real coherence engine then reproduces the target mix.
type Generator struct {
	App   App
	Nodes int
	// HitsPerMiss adds this many cache-hitting accesses per miss to make
	// the trace resemble a real access stream (hits are invisible to the
	// network).
	HitsPerMiss int
	// PoolCap bounds the shared/modified line pools; small pools keep
	// pool lines recently used so L1 evictions cannot silently demote
	// them before they are reused.
	PoolCap int

	rng      *sim.RNG
	nextLine coherence.Line

	sPool []sharedLine
	mPool []ownedLine

	hotLines []uint64
	hotInit  []bool

	avgFlits float64
}

type sharedLine struct {
	line    coherence.Line
	sharers []int
}

type ownedLine struct {
	line  coherence.Line
	owner int
}

// Flit-cost model per category for converting a target network load into a
// miss rate: request 4 flits, reply 20 (Table 2), so direct = 24,
// single-sharer invalidation = 4+4+20 = 28, forwarding = 4+4+20+20 = 48.
const (
	flitsDirect  = 24.0
	flitsInval   = 28.0
	flitsForward = 48.0
)

// NewGenerator builds a generator for an application on a machine of the
// given size.
func NewGenerator(app App, nodes int, seed uint64) *Generator {
	g := &Generator{
		App: app, Nodes: nodes, HitsPerMiss: 1, PoolCap: 8 * nodes,
		rng:      sim.NewRNG(seed),
		hotLines: make([]uint64, nodes),
		hotInit:  make([]bool, nodes),
	}
	g.avgFlits = app.Direct*flitsDirect + app.Inval*flitsInval + app.Forward*flitsForward
	// Reserve distinct hot lines per cpu, spaced so they never collide.
	for i := range g.hotLines {
		g.hotLines[i] = g.newLineAddr(-1)
	}
	return g
}

// newLineAddr allocates a fresh line and returns its base address; if
// avoidHome >= 0 the line's home is steered away from that node.
func (g *Generator) newLineAddr(avoidHome int) uint64 {
	for {
		g.nextLine++
		if avoidHome >= 0 && int(uint64(g.nextLine)%uint64(g.Nodes)) == avoidHome {
			continue
		}
		return uint64(g.nextLine) * 64
	}
}

// Generate synthesizes a trace of the given length in cycles.
func (g *Generator) Generate(cycles int64) *Trace {
	t := &Trace{}
	level := g.pickLevel()
	for now := int64(0); now < cycles; now++ {
		if g.App.WindowLen > 0 && now%g.App.WindowLen == 0 {
			level = g.pickLevel()
		}
		pMiss := level / g.avgFlits
		for cpu := 0; cpu < g.Nodes; cpu++ {
			if !g.rng.Bernoulli(pMiss) {
				continue
			}
			g.emitMiss(t, now, cpu)
			for h := 0; h < g.HitsPerMiss; h++ {
				g.emitHit(t, now, cpu)
			}
		}
	}
	return t
}

// pickLevel samples a load level from the application profile.
func (g *Generator) pickLevel() float64 {
	weights := make([]float64, len(g.App.Levels))
	for i, l := range g.App.Levels {
		weights[i] = l.Weight
	}
	return g.App.Levels[g.rng.Pick(weights)].Load
}

// emitHit records an access to the cpu's private hot line (a guaranteed L1
// hit after its first touch, which is itself a direct-reply miss folded into
// the mix).
func (g *Generator) emitHit(t *Trace, now int64, cpu int) {
	t.Records = append(t.Records, Record{Time: now, CPU: uint16(cpu), Op: coherence.Read, Addr: g.hotLines[cpu]})
	g.hotInit[cpu] = true
}

// emitMiss synthesizes one miss access of a category drawn from the target
// mix, falling back to a pool-replenishing direct access when the drawn
// category's pool is empty.
func (g *Generator) emitMiss(t *Trace, now int64, cpu int) {
	switch g.rng.Pick([]float64{g.App.Direct, g.App.Inval, g.App.Forward}) {
	case 1: // invalidation
		if len(g.sPool) > 0 {
			g.emitInvalidation(t, now)
			return
		}
	case 2: // forwarding
		if len(g.mPool) > 0 {
			g.emitForwarding(t, now)
			return
		}
	}
	g.emitDirect(t, now, cpu)
}

// emitDirect accesses a fresh line; reads feed the shared pool and writes
// the modified pool. The starved pool (relative to upcoming demand) gets the
// replenishment.
func (g *Generator) emitDirect(t *Trace, now int64, cpu int) {
	addr := g.newLineAddr(cpu)
	line := coherence.Line(addr / 64)
	wantShared := float64(len(g.sPool))*g.App.Forward <= float64(len(g.mPool))*g.App.Inval
	if g.App.Inval == 0 && g.App.Forward == 0 {
		wantShared = g.rng.Bernoulli(0.5)
	}
	if wantShared {
		t.Records = append(t.Records, Record{Time: now, CPU: uint16(cpu), Op: coherence.Read, Addr: addr})
		g.pushShared(sharedLine{line: line, sharers: []int{cpu}})
	} else {
		t.Records = append(t.Records, Record{Time: now, CPU: uint16(cpu), Op: coherence.Write, Addr: addr})
		g.pushOwned(ownedLine{line: line, owner: cpu})
	}
}

// emitInvalidation writes a pooled shared line from a non-sharer.
func (g *Generator) emitInvalidation(t *Trace, now int64) {
	sl := g.popShared()
	writer := g.pickExcluding(sl.sharers)
	t.Records = append(t.Records, Record{Time: now, CPU: uint16(writer), Op: coherence.Write, Addr: uint64(sl.line) * 64})
	g.pushOwned(ownedLine{line: sl.line, owner: writer})
}

// emitForwarding reads a pooled modified line from a non-owner.
func (g *Generator) emitForwarding(t *Trace, now int64) {
	ol := g.popOwned()
	reader := g.pickExcluding([]int{ol.owner})
	t.Records = append(t.Records, Record{Time: now, CPU: uint16(reader), Op: coherence.Read, Addr: uint64(ol.line) * 64})
	g.pushShared(sharedLine{line: ol.line, sharers: []int{ol.owner, reader}})
}

// pickExcluding draws a uniform cpu not in the exclusion list.
func (g *Generator) pickExcluding(excl []int) int {
	for {
		c := g.rng.Intn(g.Nodes)
		ok := true
		for _, e := range excl {
			if c == e {
				ok = false
				break
			}
		}
		if ok {
			return c
		}
	}
}

// pushShared/popShared and pushOwned/popOwned maintain bounded LIFO pools;
// LIFO reuse keeps pool lines hot in the relevant caches so engine-side
// evictions cannot silently invalidate them before reuse.
func (g *Generator) pushShared(s sharedLine) {
	g.sPool = append(g.sPool, s)
	if len(g.sPool) > g.PoolCap {
		g.sPool = g.sPool[1:]
	}
}

func (g *Generator) popShared() sharedLine {
	s := g.sPool[len(g.sPool)-1]
	g.sPool = g.sPool[:len(g.sPool)-1]
	return s
}

func (g *Generator) pushOwned(o ownedLine) {
	g.mPool = append(g.mPool, o)
	if len(g.mPool) > g.PoolCap {
		g.mPool = g.mPool[1:]
	}
}

func (g *Generator) popOwned() ownedLine {
	o := g.mPool[len(g.mPool)-1]
	g.mPool = g.mPool[:len(g.mPool)-1]
	return o
}
