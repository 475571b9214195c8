package network

import (
	"context"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/core"
	"repro/internal/deadlock"
	"repro/internal/message"
	"repro/internal/netiface"
	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Network is one fully wired simulated system.
type Network struct {
	Cfg    Config
	Torus  *topology.Torus
	Scheme *schemes.Scheme
	Engine *protocol.Engine
	Table  *protocol.Table

	Routers  []*router.Router
	NIs      []*netiface.NI
	Channels []*router.Channel

	Clock  *sim.Clock
	Stats  *stats.Collector
	Source traffic.Source

	// Rescue is PR's recovery engine and its token (nil under SA and DR).
	Rescue *core.Rescue

	// Health is the link-liveness mask KillLink creates on the first link
	// death; the routing function excludes dead links from its candidate
	// sets. Nil, the fault-free case, has every link alive.
	Health *routing.Health

	// Faults accumulates losses charged to injected faults, so the
	// invariant checker's conservation laws can distinguish declared loss
	// from a simulator bug.
	Faults FaultStats

	// faults is the end-of-cycle fault stage (fault.go), nil until the first
	// AttachFaults or StallLink.
	faults *faultStage

	// Detector is the optional CWG observer, installed by attachDetector
	// when Cfg.CWGInterval > 0; scan is its periodic entry point.
	Detector *deadlock.Detector

	// Probe is the distributed edge-chasing detector, installed when
	// Cfg.Detector selects the probe mode; it steps once per cycle after
	// channel commits and triggers recovery through OnDeclare.
	Probe *probe.Engine

	RNG       *sim.RNG
	nextPktID message.PacketID

	// Pool recycles message/packet objects across the whole system; each
	// network owns its own so concurrently running networks stay
	// independent.
	Pool *message.Pool

	// The candidate table: the routing function tabulated for every (routing
	// combo, destination endpoint, router), which with link health is all it
	// depends on. Row i is candSlab[candOff[i]:candOff[i+1]]; candCombo maps
	// (type, backoff) to its deduplicated (mode, VC set) combo index. Both
	// arrays are pointer-free, so the collector never scans them.
	// buildCandTable lays it out in newBare and again in InvalidateRouting
	// after a health change. It is the only candidate cache: the router
	// allocator calls Candidates once per header, and once more per release
	// event while it is blocked.
	candSlab  []routing.PortVC
	candOff   []uint32
	candCombo [int(message.NumTypes) * 2]int8

	// injectVCs caches Scheme.VCSetFor(...).All() per (type, backoff) so
	// the NI injection path never materializes the list.
	injectVCs [message.NumTypes][2][]int

	// occupied counts committed flits across every channel, maintained
	// incrementally by the VCs (see router.Channel.SetOccupancyCounter), so
	// Quiescent tests one integer instead of scanning all buffers.
	occupied int64

	// bus is the optional trace bus every component emits onto, installed by
	// AttachObs/AttachSampler/AttachEpisodes (obs.go); sampler is the sink on
	// it that also needs a tick per cycle. Both nil in a plain run: every
	// emission site guards with one nil check.
	bus     *obs.Bus
	sampler *obs.Sampler

	// prof is the optional cycle-level phase profiler, installed by
	// AttachProfiler (obs.go); nil in a plain run, one branch per phase
	// boundary in Step.
	prof *telemetry.CycleProfiler

	// OnCycle, when non-nil, runs at the end of every cycle (used by the
	// trace harness to sample load and by tests to observe state).
	OnCycle func(now int64)

	// OnDispatch, when non-nil, observes every recovery dispatch at input
	// queue (ni, q), from either trigger, before the scheme acts. It must
	// not mutate the network.
	OnDispatch func(ni *netiface.NI, q int, now int64)

	// Active-set sweep state (see Step). activeRW/activeNIW are bitmask
	// words (bit = component must be stepped this cycle); sweeps iterate
	// set bits in ascending ID order — the dense order — and the all-idle
	// fast path tests a word or two for zero. lastR/lastNI record the cycle
	// each component last stepped so SkipIdle can fold the skipped idle
	// cycles' round-robin rotations in before it re-enters the sweep — the
	// mechanism that keeps results byte-identical to dense stepping.
	activeRW  []uint64
	activeNIW []uint64
	lastR     []int64
	lastNI    []int64

	// wakeRing is the calendar for NIs that sleep until a known cycle (see
	// netiface.NI.Dormant): slot c&63, as wide as activeNIW, holds the NIs to
	// put back into the active set at cycle c, for the wakeSlots-1 cycles
	// after the current one. It is always wakeSlots slots, whatever the
	// service time: a wake further out is armed as far ahead as the ring
	// reaches, where the NI takes one more rotation step and re-arms. (Arming
	// at until&63 regardless would wake it in time too, but could write the
	// current cycle's slot, already consumed, and NIWakeAt could no longer
	// tell when a bit fires.) Derived state: a slot may hold stale bits (a
	// spurious wake is safe at every wake site), so nothing about it is
	// captured in a snapshot.
	wakeRing []uint64

	// routerSteps, niSteps and idleCycles are the sweep's exact work counters
	// (see StepCounts).
	routerSteps, niSteps, idleCycles int64

	// dirtyCh lists channels that received staged flits this cycle (fed by
	// the channel stage hooks); only these are committed in the active
	// sweep, and committing one wakes its consumer. chEP maps an ejection
	// channel's ID to its endpoint for that wake (-1 for other kinds).
	dirtyCh []*router.Channel
	chEP    []int

	// forceDense selects the dense regime (see Step), set by tests and the
	// benchmark's verify for differential runs. An attached profiler also
	// forces dense so phase accounting stays exact.
	forceDense bool

	// rescueDefer suppresses the recovery engine's step for that many
	// upcoming cycles. The model checker sets it (via DeferRescue) to
	// branch on recovery scheduling: delaying the token walk or capture by
	// a cycle explores detection/recovery interleavings the deterministic
	// schedule would never produce on its own.
	rescueDefer int64

	// shape caches shapeOf; snapWords and snapObjects are the size of the last
	// snapshot taken, which the next one's writer starts at.
	shape                  string
	snapWords, snapObjects int
}

// New builds a network with the built-in synthetic uniform-random source at
// cfg.Rate.
func New(cfg Config) (*Network, error) {
	n, err := newBare(cfg)
	if err != nil {
		return nil, err
	}
	src := traffic.NewSynthetic(cfg.Rate, n.Torus.Endpoints(), n.Engine, n.Table, n.RNG.Split())
	src.MaxOutstanding = cfg.MaxOutstanding
	n.Source = src
	return n, nil
}

// NewWithSource builds a network driven by a custom traffic source factory,
// which receives the network's engine, table and RNG.
func NewWithSource(cfg Config, mk func(e *protocol.Engine, t *protocol.Table, rng *sim.RNG, endpoints int) traffic.Source) (*Network, error) {
	n, err := newBare(cfg)
	if err != nil {
		return nil, err
	}
	n.Source = mk(n.Engine, n.Table, n.RNG.Split(), n.Torus.Endpoints())
	return n, nil
}

func newBare(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mk := topology.NewTorus
	if cfg.Mesh {
		mk = topology.NewMesh
	}
	tor, err := mk(cfg.Radix, cfg.Bristling)
	if err != nil {
		return nil, err
	}
	sch, err := schemes.NewWithOptions(cfg.Scheme, cfg.Pattern, cfg.VCs, cfg.QueueMode, cfg.SASharedChannels, tor.EscapeVCs())
	if err != nil {
		return nil, err
	}
	eng, err := protocol.NewEngine(cfg.Pattern, cfg.Lengths)
	if err != nil {
		return nil, err
	}
	n := &Network{
		Cfg:    cfg,
		Torus:  tor,
		Scheme: sch,
		Engine: eng,
		Table:  protocol.NewTable(),
		Clock:  sim.NewClock(cfg.Warmup, cfg.Measure, cfg.MaxDrain),
		Stats:  stats.NewCollector(tor.Endpoints()),
		RNG:    sim.NewRNG(cfg.Seed),
		Pool:   message.NewPool(),
	}
	eng.SetPool(n.Pool)
	for t := message.Type(0); t < message.NumTypes; t++ {
		for b := 0; b < 2; b++ {
			n.injectVCs[t][b] = sch.VCSetFor(t, b == 1).All()
		}
	}
	n.Stats.Cycles = cfg.Measure
	n.build()
	n.buildCandTable()
	for _, ch := range n.Channels {
		ch.SetOccupancyCounter(&n.occupied)
	}
	n.initActive()
	if cfg.Scheme == schemes.PR {
		n.Rescue = core.New(core.Config{
			Torus:             tor,
			Engine:            eng,
			Table:             n.Table,
			NIs:               n.NIs,
			Routers:           n.Routers,
			Channels:          n.Channels,
			RouterTimeout:     int64(cfg.RouterTimeout),
			TokenHopCycles:    cfg.TokenHopCycles,
			TokenRegenTimeout: cfg.TokenRegenTimeout,
			OnRescue: func(now int64) {
				if n.inWindow(now) {
					n.Stats.Rescues++
				}
			},
		})
	}
	n.attachDetector()
	n.attachProbe()
	return n, nil
}

// attachProbe installs the distributed edge-chasing detector when the
// configuration selects it; declarations dispatch the same recovery action
// an endpoint threshold firing would.
func (n *Network) attachProbe() {
	if n.Cfg.Detector != DetectorProbe {
		return
	}
	n.Probe = probe.New(n, n.Pool)
	n.Probe.OnDeclare = func(origin int, now int64) {
		n.Stats.DetectLatencySum += n.Probe.LastDeclareLatency
		n.Stats.DetectLatencyCount++
		if ep, q, ok := n.Probe.Layout().InQueueOf(origin); ok {
			n.recoverAt(n.NIs[ep], q, now)
		}
	}
}

// build wires routers, channels, and NIs.
func (n *Network) build() {
	tor := n.Torus
	dirs := tor.Directions()
	numPorts := dirs + tor.Bristling

	n.Routers = make([]*router.Router, tor.Routers())
	for id := range n.Routers {
		n.Routers[id] = router.New(topology.NodeID(id), n, numPorts, numPorts)
	}

	chID := 0
	newCh := func(kind router.ChannelKind, src, dst topology.NodeID, dir topology.Direction, local int) *router.Channel {
		ch := router.NewChannel(kind, src, dst, dir, local, chID, n.Cfg.VCs, n.Cfg.FlitBuf)
		chID++
		n.Channels = append(n.Channels, ch)
		return ch
	}

	// Link channels: the output of router r in direction d feeds the input
	// of its d-neighbor, indexed by the direction of travel. Mesh edges
	// simply lack the wraparound channels (nil ports).
	for id := range n.Routers {
		r := topology.NodeID(id)
		for d := topology.Direction(0); d < topology.Direction(dirs); d++ {
			if !tor.HasNeighbor(r, d) {
				continue
			}
			nb := tor.Neighbor(r, d)
			ch := newCh(router.KindLink, r, nb, d, 0)
			n.Routers[r].Outputs[int(d)] = ch
			n.Routers[nb].Inputs[int(d)] = ch
		}
	}

	// NIs with injection/ejection channels.
	n.NIs = make([]*netiface.NI, tor.Endpoints())
	for ep := 0; ep < tor.Endpoints(); ep++ {
		e := tor.EndpointByID(ep)
		ni := netiface.New(n.niConfig(ep))
		inj := newCh(router.KindInject, e.Router, e.Router, 0, e.Local)
		ej := newCh(router.KindEject, e.Router, e.Router, 0, e.Local)
		ni.Inject = inj
		ni.Eject = ej
		n.Routers[e.Router].Inputs[dirs+e.Local] = inj
		n.Routers[e.Router].Outputs[dirs+e.Local] = ej
		n.NIs[ep] = ni
	}
}

// niConfig builds the per-endpoint NI configuration, closing over the
// network for hooks and policy.
func (n *Network) niConfig(ep int) netiface.Config {
	return netiface.Config{
		Endpoint:        ep,
		Queues:          n.Scheme.NumQueues(),
		QueueIndex:      n.Scheme.QueueIndex,
		QueueCap:        n.Cfg.QueueCap,
		ServiceTime:     n.Cfg.ServiceTime,
		DetectThreshold: n.Cfg.DetectThreshold,
		RetryBackoff:    n.Cfg.RetryBackoff,
		InjectVCs:       n.InjectVCsOf,
		Engine:          n.Engine,
		Table:           n.Table,
		NextPacketID:    n.newPacketID,
		Pool:            n.Pool,
		Hooks: netiface.Hooks{
			Injected:       n.onInjected,
			Delivered:      n.onDelivered,
			TxnComplete:    n.onTxnComplete,
			Detect:         n.onDetect,
			RescueServiced: n.onRescueServiced,
		},
	}
}

func (n *Network) newPacketID() message.PacketID {
	n.nextPktID++
	return n.nextPktID
}

// Candidates implements router.Policy: the routing function candidates for
// pkt positioned at router r, under the scheme's VC partition for its type.
// An O(1) lookup in the candidate table; the row's capacity ends where the
// next row begins, so appending to it cannot reach a neighbour.
func (n *Network) Candidates(r topology.NodeID, pkt *message.Packet) []routing.PortVC {
	m := pkt.Msg
	bo := 0
	if m.Backoff || m.Nack {
		bo = 1
	}
	combo := n.candCombo[int(m.Type)*2+bo]
	i := (int(combo)*n.Torus.Endpoints()+m.Dst)*len(n.Routers) + int(r)
	lo, hi := n.candOff[i], n.candOff[i+1]
	return n.candSlab[lo:hi:hi]
}

// buildCandTable computes the candidate list for every (routing combo,
// destination endpoint, router) triple under the current link health. Many
// message types share one (mode, VC set) combo under a given scheme — all of
// them under PR — so the table is deduplicated by combo. One pass appends the
// routing function's output straight into a slab sized from each combo's
// longest possible rows (routing.MaxCandidates), which therefore never grows:
// two allocations however large the network, instead of one per row.
func (n *Network) buildCandTable() {
	type combo struct {
		mode routing.Mode
		set  routing.VCSet
	}
	combos := make([]combo, 0, 2*int(message.NumTypes)) // constant capacity: stays on the stack
	for t := 0; t < int(message.NumTypes); t++ {
		for bo := 0; bo < 2; bo++ {
			mode := n.Scheme.RoutingMode(message.Type(t), bo == 1)
			set := n.Scheme.VCSetFor(message.Type(t), bo == 1)
			idx := -1
			for i, c := range combos {
				if c.mode == mode && slices.Equal(c.set.Escape, set.Escape) && slices.Equal(c.set.Adaptive, set.Adaptive) {
					idx = i
					break
				}
			}
			if idx < 0 {
				idx = len(combos)
				combos = append(combos, combo{mode, set})
			}
			n.candCombo[t*2+bo] = int8(idx)
		}
	}
	eps, nr := n.Torus.Endpoints(), len(n.Routers)
	bound := 0
	for _, c := range combos {
		// Each destination endpoint has one router it is local to.
		atDst, routed := routing.MaxCandidates(n.Torus, c.mode, c.set)
		bound += eps * (atDst + (nr-1)*routed)
	}
	slab := make([]routing.PortVC, 0, bound)
	off := make([]uint32, 1, len(combos)*eps*nr+1)
	for _, c := range combos {
		for d := 0; d < eps; d++ {
			dst := n.Torus.EndpointByID(d)
			for r := 0; r < nr; r++ {
				slab = routing.AppendCandidatesHealth(slab, n.Health, n.Torus, c.mode, topology.NodeID(r), dst.Router, dst.Local, c.set)
				off = append(off, uint32(len(slab)))
			}
		}
	}
	n.candSlab, n.candOff = slab, off
}

// FaultStats tallies losses attributable to injected faults.
type FaultStats struct {
	// LostFlits counts flits destroyed by drop faults (they vanish from
	// conservation, accounted here instead); LostMsgs counts the messages
	// those flits belonged to.
	LostFlits int64
	LostMsgs  int64
}

// inWindow reports whether cycle t falls inside the measurement window.
func (n *Network) inWindow(t int64) bool {
	start, end := n.Clock.MeasureWindow()
	return t >= start && t < end
}

func (n *Network) onInjected(m *message.Message, now int64) {
	if n.inWindow(now) {
		n.Stats.OnInjected(m)
	}
	if n.bus != nil {
		n.bus.Emit(obs.Event{Cycle: now, Kind: obs.KindInject, Node: m.Src,
			Arg: int64(m.Flits), Txn: int64(m.Txn), MsgType: m.Type.String(),
			Src: m.Src, Dst: m.Dst})
	}
}

func (n *Network) onDelivered(m *message.Message, now int64) {
	n.Stats.OnDelivered(m, n.inWindow(now), n.inWindow(m.Created))
	if n.bus != nil {
		n.bus.Emit(obs.Event{Cycle: now, Kind: obs.KindDeliver, Node: m.Dst,
			Arg: int64(m.Flits), Aux: m.TotalLatency(),
			Txn: int64(m.Txn), MsgType: m.Type.String(), Src: m.Src, Dst: m.Dst})
	}
}

func (n *Network) onTxnComplete(t *protocol.Transaction, now int64) {
	if n.inWindow(t.Created) {
		n.Stats.OnTxnComplete(t.Created, now)
	}
	if n.Source != nil {
		n.Source.TxnCompleted(t.Requester)
	}
}

// onDetect handles an endpoint threshold firing according to the configured
// detector mode. In threshold mode (the default) the firing itself is the
// detection: recovery dispatches immediately, and the sample charged to
// detection latency is the threshold streak (blocking persisted
// DetectThreshold+1 cycles before the counter could fire). In probe mode the
// firing launches a detection probe from the stalled input queue; recovery
// waits for a probe to come back around the wait cycle.
func (n *Network) onDetect(ni *netiface.NI, q int, now int64) {
	if n.inWindow(now) {
		n.Stats.DetectEvents++
	}
	if n.bus != nil {
		n.bus.Emit(obs.Event{Cycle: now, Kind: obs.KindDetect,
			Node: ni.Cfg.Endpoint, Arg: int64(q)})
	}
	if n.Cfg.Detector == DetectorProbe {
		onset := now - int64(n.Cfg.DetectThreshold) - 1
		n.Probe.Launch(n.Probe.Layout().InVertex(ni.Cfg.Endpoint, q), onset, now)
		return
	}
	n.Stats.DetectLatencySum += int64(n.Cfg.DetectThreshold) + 1
	n.Stats.DetectLatencyCount++
	n.recoverAt(ni, q, now)
}

// recoverAt dispatches the scheme's recovery action at endpoint queue
// (ni, q): nothing under SA (its detector can only fire on transient
// congestion; strict avoidance guarantees eventual progress), deflection
// under DR, NACK under AB, token-capture request under PR. Both triggers
// end here, and OnDispatch sees each dispatch first, SA's included.
func (n *Network) recoverAt(ni *netiface.NI, q int, now int64) {
	if n.OnDispatch != nil {
		n.OnDispatch(ni, q, now)
	}
	switch n.Cfg.Scheme {
	case schemes.DR:
		n.replaceHead(ni, q, now, n.Engine.Backoff, obs.KindDeflect)
	case schemes.AB:
		n.replaceHead(ni, q, now, n.Engine.Nack, obs.KindNack)
	case schemes.PR:
		ni.WantRescue = true
	}
}

// replaceHead performs a head-replacing recovery action at endpoint queue
// (ni, q): pop the head message and answer it with a reply on the reply
// network that the engine builds, Engine.Backoff under DR (the Origin2000
// backoff: the requester re-issues the head's request-class subordinate
// itself) or Engine.Nack under AB (the regressive action: the head is killed
// and its sender re-injects it). Either reply is an M2 and needs a free slot
// in M2's output queue, checked before the reply is built; without one
// nothing changes and the detection re-fires and retries.
func (n *Network) replaceHead(ni *netiface.NI, q int, now int64,
	reply func(*protocol.Transaction, *message.Message, int64) *message.Message, kind obs.Kind) {
	m, ok := ni.Head(q)
	if !ok {
		return
	}
	txn := n.Table.Get(m.Txn)
	if !n.Scheme.Deflectable(n.Engine, txn, m) || !ni.OutSpace(n.Scheme.QueueIndex(message.M2, true), 1) {
		return
	}
	ni.PopHead(q)
	ni.DeflectCount++
	ni.EnqueueOut(reply(txn, m, now))
	if n.inWindow(now) {
		n.Stats.Deflections++ // both actions share the counter; the
		// scheme kind disambiguates in reports
	}
	if n.bus != nil {
		n.bus.Emit(obs.Event{Cycle: now, Kind: kind,
			Node: ni.Cfg.Endpoint, Arg: int64(q), Txn: int64(m.Txn),
			MsgType: m.Type.String(), Src: m.Src, Dst: m.Dst})
	}
	n.Pool.PutMessage(m) // the head is fully replaced by the reply
}

// onRescueServiced forwards controller completions of rescue services to the
// progressive-recovery engine.
func (n *Network) onRescueServiced(ni *netiface.NI, m *message.Message, subs []*message.Message, now int64) {
	if n.Rescue == nil {
		panic("network: rescue service completed without a rescue engine")
	}
	n.Rescue.Serviced(ni, m, subs, now)
}

// initActive builds the active-set sweep state: every component starts
// active (the first Step sweeps it, after which idle ones fall out), NI wake
// hooks and channel stage hooks feed the sets, and chEP maps ejection
// channels to their endpoints so committing one can wake the right NI.
func (n *Network) initActive() {
	n.activeRW = make([]uint64, (len(n.Routers)+63)/64)
	n.activeNIW = make([]uint64, (len(n.NIs)+63)/64)
	n.wakeRing = make([]uint64, wakeSlots*len(n.activeNIW))
	n.lastR = make([]int64, len(n.Routers))
	n.lastNI = make([]int64, len(n.NIs))
	setAll(n.activeRW, len(n.Routers))
	setAll(n.activeNIW, len(n.NIs))
	for i := range n.lastR {
		n.lastR[i] = -1
	}
	for i := range n.lastNI {
		n.lastNI[i] = -1
	}
	n.dirtyCh = make([]*router.Channel, 0, len(n.Channels))
	n.chEP = make([]int, len(n.Channels))
	for i := range n.chEP {
		n.chEP[i] = -1
	}
	for ep, ni := range n.NIs {
		ep := ep
		ni.SetWakeHook(func() { n.wakeNI(ep) })
		n.chEP[ni.Eject.ID] = ep
	}
	for _, ch := range n.Channels {
		ch.SetStageHook(n.noteDirty)
	}
}

func (n *Network) noteDirty(ch *router.Channel) {
	n.dirtyCh = append(n.dirtyCh, ch)
}

func (n *Network) wakeNI(ep int) {
	n.activeNIW[ep>>6] |= 1 << uint(ep&63)
}

func (n *Network) wakeRouter(id int) {
	n.activeRW[id>>6] |= 1 << uint(id&63)
}

// wakeSlots is the length of the NI wake ring in cycles; a power of two.
const wakeSlots = 64

// maskEmpty reports whether every word of an active-set mask is zero.
func maskEmpty(ws []uint64) bool {
	for _, w := range ws {
		if w != 0 {
			return false
		}
	}
	return true
}

// setAll sets the first count bits of an active-set mask and clears the rest.
func setAll(ws []uint64, count int) {
	for i := range ws {
		ws[i] = ^uint64(0)
	}
	if rem := count & 63; rem != 0 {
		ws[len(ws)-1] = 1<<uint(rem) - 1
	}
}

// SetDense forces the dense regime: every component stepped every cycle,
// every channel committed. No run needs it, faulted ones included; it exists
// for differential testing against the active-set engine. It may be toggled
// between any two cycles.
func (n *Network) SetDense(on bool) { n.forceDense = on }

// RouterActive reports whether router id is in the active sweep set (for the
// invariant checker: an inactive router must have all-empty input VCs).
func (n *Network) RouterActive(id int) bool { return n.activeRW[id>>6]>>uint(id&63)&1 == 1 }

// NIActive reports whether endpoint ep's NI is in the active sweep set (for
// the invariant checker: an inactive NI must be Dormant).
func (n *Network) NIActive(ep int) bool { return n.activeNIW[ep>>6]>>uint(ep&63)&1 == 1 }

// NIWakeAt returns the first cycle from the current one on at which the wake
// ring puts endpoint ep's NI back into the active set, or netiface.Never if
// no slot holds it (for the invariant checker: an inactive NI with a finite
// Dormant wake must have a timer that fires no later).
func (n *Network) NIWakeAt(ep int) int64 {
	now := n.Clock.Now()
	for at := now; at < now+wakeSlots; at++ {
		if n.wakeRing[int(at&(wakeSlots-1))*len(n.activeNIW)+ep>>6]>>uint(ep&63)&1 == 1 {
			return at
		}
	}
	return netiface.Never
}

// InvalidateRouting rebuilds the candidate table and unparks every blocked
// header. KillLink calls it after changing the link-health mask, and so must
// anything else that changes Health, so blocked headers re-derive their
// candidates against the new topology on the next cycle's allocation attempt.
func (n *Network) InvalidateRouting() {
	n.buildCandTable()
	for _, r := range n.Routers {
		r.Unpark()
	}
}

// VACounts sums the routers' header allocation attempts and grants: exact
// work counters, identical across hosts for a given configuration and seed.
func (n *Network) VACounts() (attempts, grants int64) {
	for _, r := range n.Routers {
		a, g := r.VACounts()
		attempts, grants = attempts+a, grants+g
	}
	return
}

// StepCounts returns the sweep's exact work counters: router steps executed,
// NI steps executed, and cycles on which the sweep was skipped because
// nothing was active. Like VACounts they are identical across hosts for a
// given configuration and seed.
func (n *Network) StepCounts() (routerSteps, niSteps, idleCycles int64) {
	return n.routerSteps, n.niSteps, n.idleCycles
}

// generate runs the traffic source. It must run every cycle outside the drain
// phase — including fast-path cycles — because a source may hold arrivals it
// drew ahead for exactly this cycle (traffic.Source.Generate's contract).
func (n *Network) generate(now int64) {
	if n.Clock.Phase() != sim.PhaseDrain && n.Source != nil {
		n.Source.Generate(now, n.NIs)
	}
}

// scanDue reports whether the periodic CWG scan fires this cycle.
func (n *Network) scanDue(now int64) bool {
	return n.Detector != nil && n.Cfg.CWGInterval > 0 && now > 0 && now%n.Cfg.CWGInterval == 0
}

// Step advances the system one cycle. Two regimes run the same sweep
// (below) with identical semantics:
//
//   - dense (profiler attached or SetDense): every NI and router steps and
//     every channel commits, whatever the wake hooks and the dirty list say,
//     which makes a dense run an independent reference for the other regime.
//   - active: only components in the active sets step, after an O(1)
//     SkipIdle catch-up replaying the round-robin rotations of the cycles
//     they slept through; only dirty channels commit, and each commit wakes
//     the consumer for the next cycle. A frozen router or stalled NI stays in
//     its set until the fault ends, so no catch-up covers a cycle in which it
//     would not have rotated. When nothing is active, no channel is dirty and
//     no scan is due, the sweep is skipped altogether and only the per-cycle
//     housekeeping runs — traffic generation (the source is told of every
//     cycle), the rescue token walk, sampler, fault stage, OnCycle, clock.
//
// Either way the cycle starts by moving the NIs whose timer expires now from
// the wake ring into the active set.
//
// The phase-profiler marks sit on the pipeline boundaries that already exist
// (routing and arbitration mark themselves inside Router.Step); since an
// attached profiler forces the dense regime, its phase accounting is exact.
func (n *Network) Step() {
	now := n.Clock.Now()
	slot := n.wakeRing[int(now&(wakeSlots-1))*len(n.activeNIW):][:len(n.activeNIW)]
	for wi, w := range slot {
		n.activeNIW[wi] |= w
		slot[wi] = 0
	}
	if n.prof != nil || n.forceDense {
		n.sweep(now, true, true)
		return
	}
	if maskEmpty(n.activeRW) && maskEmpty(n.activeNIW) &&
		len(n.dirtyCh) == 0 && !n.scanDue(now) &&
		(n.Probe == nil || n.Probe.Idle()) {
		n.generate(now)
		if maskEmpty(n.activeNIW) {
			if n.Rescue != nil {
				n.stepRescue(now)
			}
			n.endCycle(now)
			n.idleCycles++
			n.Clock.Tick()
			return
		}
		// Generation woke an NI: fall into the sweep without re-drawing.
		n.sweep(now, false, false)
		return
	}
	n.sweep(now, true, false)
}

// mark charges the time since the previous mark to ph when a profiler is
// attached.
func (n *Network) mark(ph telemetry.Phase) {
	if n.prof != nil {
		n.prof.Mark(ph)
	}
}

// sweep runs one cycle. Each active-mask word is snapshotted and its set
// bits visited ascending — the dense ID order. A component woken mid-sweep
// (only self-steps and the post-sweep rescue and commit phases wake anyone)
// steps next cycle instead; it would have performed a pure rotation step this
// cycle anyway (the wake cause is invisible until channel commit), which its
// catch-up replays exactly. Under dense the masks are first overwritten with
// every component and every channel is committed, so nothing the hooks
// recorded decides what runs; the catch-up then only matters on the first
// dense cycle after a regime switch, and the activity flags and wakes are
// maintained all the same so a switch back resumes from exact state.
func (n *Network) sweep(now int64, gen, dense bool) {
	if n.prof != nil {
		n.prof.BeginCycle()
	}
	if gen {
		n.generate(now)
	}
	n.mark(telemetry.PhaseSource)
	if dense {
		setAll(n.activeNIW, len(n.NIs))
		setAll(n.activeRW, len(n.Routers))
	}
	for wi, w := range n.activeNIW {
		for w != 0 {
			b := w & (-w)
			ep := wi<<6 + bits.TrailingZeros64(w)
			w &^= b
			ni := n.NIs[ep]
			if k := now - 1 - n.lastNI[ep]; k > 0 {
				ni.SkipIdle(k)
			}
			n.lastNI[ep] = now
			ni.Step(now)
			n.niSteps++
			if until, ok := ni.Dormant(); ok && until > now+1 && ni.StallUntil <= now+1 {
				n.activeNIW[wi] &^= b
				if until != netiface.Never {
					at := min(until, now+wakeSlots-1)
					n.wakeRing[int(at&(wakeSlots-1))*len(n.activeNIW)+wi] |= b
				}
			}
		}
	}
	n.mark(telemetry.PhaseProtocol)
	for wi, w := range n.activeRW {
		for w != 0 {
			b := w & (-w)
			id := wi<<6 + bits.TrailingZeros64(w)
			w &^= b
			r := n.Routers[id]
			if k := now - 1 - n.lastR[id]; k > 0 {
				r.SkipIdle(k)
			}
			n.lastR[id] = now
			r.Step(now)
			n.routerSteps++
			if r.InputsIdle() && r.FrozenUntil <= now+1 {
				n.activeRW[wi] &^= b
			}
		}
	}
	if n.Rescue != nil {
		n.stepRescue(now)
	}
	n.mark(telemetry.PhaseRescue)
	// Committed flits become visible next cycle, so each channel that staged
	// flits this cycle wakes its consumer. Cross-channel commit order is
	// immaterial: commits touch disjoint VC state and a shared counter.
	// Under dense every channel commits first, which leaves the dirty list
	// nothing to commit and only its wakes to deliver.
	if dense {
		for _, ch := range n.Channels {
			ch.Commit(now)
		}
	}
	dirty := n.dirtyCh
	n.dirtyCh = n.dirtyCh[:0]
	for _, ch := range dirty {
		ch.Commit(now)
		if ch.Kind == router.KindEject {
			n.wakeNI(n.chEP[ch.ID])
		} else {
			n.wakeRouter(int(ch.Dst))
		}
	}
	n.mark(telemetry.PhaseCredit)
	if n.Probe != nil {
		n.Probe.Step(now)
	}
	if n.scanDue(now) {
		n.scan(now)
	}
	n.mark(telemetry.PhaseDeadlock)
	n.endCycle(now)
	if n.prof != nil {
		n.prof.EndCycle()
	}
	n.Clock.Tick()
}

// endCycle runs the end-of-cycle observers and the fault stage, in the order
// sampler, faults, OnCycle.
func (n *Network) endCycle(now int64) {
	if n.sampler != nil {
		n.sampler.Tick(now)
	}
	if n.faults != nil {
		n.faults.step(now)
	}
	if n.OnCycle != nil {
		n.OnCycle(now)
	}
}

// settleSkipped applies to every sleeping component the SkipIdle catch-up it
// is owed for the cycles before now, as the sweep would at its next wake.
func (n *Network) settleSkipped(now int64) {
	for id, r := range n.Routers {
		if k := now - 1 - n.lastR[id]; k > 0 {
			r.SkipIdle(k)
			n.lastR[id] = now - 1
		}
	}
	for ep, ni := range n.NIs {
		if k := now - 1 - n.lastNI[ep]; k > 0 {
			ni.SkipIdle(k)
			n.lastNI[ep] = now - 1
		}
	}
}

// Quiescent reports whether no work remains anywhere in the system. Channel
// emptiness is the incrementally maintained occupancy counter, not a scan.
func (n *Network) Quiescent() bool {
	if n.occupied > 0 || n.Table.Len() > 0 {
		return false
	}
	for _, ni := range n.NIs {
		if !ni.Quiescent() {
			return false
		}
	}
	if n.Rescue != nil && n.Rescue.Active() {
		return false
	}
	return true
}

// OccupiedFlits returns the incrementally maintained count of committed
// flits buffered across every channel (tests assert it against a full scan).
func (n *Network) OccupiedFlits() int64 { return n.occupied }

// ctxCheckCycles is how many cycles RunContext steps between context polls:
// coarse enough to keep the poll invisible in the hot path (one atomic load
// per batch), fine enough that cancellation lands within microseconds of
// real time.
const ctxCheckCycles = 1024

// RunContext executes the configured phases: warmup, measurement, and drain
// (which ends early once the system is quiescent). It polls ctx between cycle
// batches, so a cancelled or timed-out caller stops the simulation mid-run
// with ctx's error; a context that can never be cancelled costs nothing.
func (n *Network) RunContext(ctx context.Context) error {
	done := ctx.Done()
	for i := int64(1); !n.Clock.Done(); i++ {
		n.Step()
		if n.Clock.Phase() == sim.PhaseDrain && n.Quiescent() {
			break
		}
		if done != nil && i%ctxCheckCycles == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Run is RunContext without cancellation. It returns the collector.
func (n *Network) Run() *stats.Collector {
	_ = n.RunContext(context.Background()) // cannot be cancelled
	return n.Stats
}

// RunCycles steps exactly k cycles (for tests and interactive tools).
func (n *Network) RunCycles(k int64) {
	for i := int64(0); i < k; i++ {
		n.Step()
	}
}

// String summarizes the configuration.
func (n *Network) String() string {
	return fmt.Sprintf("net{%v %s %s vcs=%d q=%s}", n.Cfg.Radix, n.Cfg.Scheme, n.Cfg.Pattern.Name, n.Cfg.VCs, n.Scheme.QueueMode)
}
