package router

import (
	"fmt"
	"math/bits"

	"repro/internal/message"
	"repro/internal/obs"
	"repro/internal/routing"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// Policy supplies routing candidates for a packet positioned at this router.
// The network layer builds it from the routing function and the handling
// scheme's virtual-channel partition for the packet's message type.
type Policy interface {
	// Candidates returns the ordered (port, VC) candidates for pkt at
	// router r. Ports follow the routing package encoding: link directions
	// first, then ejection ports. The allocator calls it once per header
	// and, for a blocked one, once more per release event at the router,
	// so it must be cheap and must not allocate.
	Candidates(r topology.NodeID, pkt *message.Packet) []routing.PortVC
}

// Router is one wormhole router: link input channels plus local injection
// channels feed a crossbar to link output channels and local ejection
// channels. It also hosts the flit-sized Disha deadlock buffer (DB); the
// recovery-lane pipeline that uses it lives in the network layer's rescue
// engine, which has global token state.
type Router struct {
	ID topology.NodeID

	// Bus receives vc-alloc and vc-stall trace events; nil when tracing is
	// off, one branch per event site.
	Bus *obs.Bus

	// Prof is the cycle profiler, marked at the routing/arbitration
	// boundary; nil when profiling is off, one branch per mark.
	Prof *telemetry.CycleProfiler

	// Inputs: indices 0..dirs-1 are link inputs (flits travelling in
	// direction d arrive on input d), dirs..dirs+bristling-1 are injection
	// channels from local NIs.
	Inputs []*Channel
	// Outputs: indices 0..dirs-1 are link outputs in direction d,
	// dirs..dirs+bristling-1 are ejection channels to local NIs.
	Outputs []*Channel

	policy Policy

	// FrozenUntil stalls the VA and SA stages while now < FrozenUntil —
	// the router-freeze fault, set by Network.FreezeRouter. Buffered flits
	// stay put (upstream staging into this router's inputs is unaffected,
	// bounded by credits), and the zero value means no freeze.
	FrozenUntil int64

	// round-robin state for fair arbitration.
	vaRR   int
	pickRR int
	saRR   []int

	// scanBuf is a per-router scratch slice reused every scan so that
	// blocked-packet collection allocates nothing at steady state.
	scanBuf []*message.Packet

	// Active-set state (built lazily by initState on the first Step or
	// input scan, so tests may wire Inputs and pre-fill buffers first).
	//
	// words holds every input VC's four control bits, all inputs packed into
	// as few words as fit: input i owns the bit group groups[i] of one word
	// (five inputs of up to 12 VCs share a single word, so one load tests the
	// whole router). At a VC's bit (VC.bit() in words[VC.wi]), occ is set iff the
	// VC holds committed flits (the same word Channel.occ points at), routed
	// iff it has an allocated Route, and ready iff that Route currently has
	// buffer space (maintained from the target side through the VC feeder
	// back-pointer — the credit signal). The VC methods
	// (Commit/Dequeue/Evacuate/Stage/ReduceCap/release) and setRoute maintain
	// the bits at exactly the points the corresponding state changes, so
	// allocate and arbitrate iterate set bits instead of walking every VC, and
	// occ∧routed∧ready enumerates exactly the movable worms.
	//
	// A parked bit marks a header whose last allocation attempt found every
	// candidate output VC owned. allocate skips it until the answer can
	// change: one of this router's output VCs is released (VC.release,
	// through Channel.up) or the candidate sets change (Unpark).
	words  []inWords
	groups []group

	// vaAttempts/vaGrants count header allocation attempts and the grants
	// among them: exact work counters, the same on every host.
	vaAttempts, vaGrants int64

	// flatVC resolves a bit to its VC: bit b of words[w] is flatVC[w<<6|b]
	// (nil at padding bits, which are never set). Bit order is (input, vc)
	// order, the order of the dense scan over Inputs[i].VCs.
	flatVC []*VC

	// req is arbitrate's scratch, zero between calls: len(words) request
	// words per output port (the live VCs routed to it), then len(words)
	// words of inputs already charged this cycle.
	req []uint64
}

// inWords is one word of occupancy/routing/credit/parking bits.
type inWords struct {
	occ    uint64
	routed uint64
	ready  uint64
	parked uint64
}

// group locates one input channel's bits: mask within words[w], VC 0 at bit
// shift. A nil input keeps the zero group, which selects nothing.
type group struct {
	mask  uint64
	w     int
	shift uint8
}

// New builds a router shell; the network wires Inputs/Outputs afterwards.
func New(id topology.NodeID, policy Policy, numIn, numOut int) *Router {
	if numIn > routing.MaxPorts {
		panic(fmt.Sprintf("router: %d inputs exceed the %d a VC's input byte can name", numIn, routing.MaxPorts))
	}
	return &Router{
		ID:      id,
		policy:  policy,
		Inputs:  make([]*Channel, numIn),
		Outputs: make([]*Channel, numOut),
		saRR:    make([]int, numOut),
	}
}

// initState lays the inputs' bit groups out, builds the words and the flat VC
// index from the current channel state, and points every input channel and
// VC at its bits. It runs lazily on the first Step or input scan: by then the
// network (or a test harness) has wired Inputs, and any pre-filled buffers are
// folded into the words here. From this point on the VC mutation methods keep
// the words in sync incrementally.
func (r *Router) initState() {
	r.groups = make([]group, len(r.Inputs))
	pos := 0
	for i, in := range r.Inputs {
		if in == nil {
			continue
		}
		n := len(in.VCs)
		if n > MaxVCs {
			panic(fmt.Sprintf("router: %d VCs on input %d exceed the %d-bit word", n, i, MaxVCs))
		}
		if pos&63+n > 64 {
			pos = (pos | 63) + 1 // a group never straddles two words
		}
		r.groups[i] = group{mask: in.vmask << uint(pos&63), w: pos >> 6, shift: uint8(pos & 63)}
		pos += n
	}
	r.flatVC = make([]*VC, pos)
	r.words = make([]inWords, (pos+63)>>6)
	r.req = make([]uint64, (len(r.Outputs)+1)*len(r.words))
	for _, out := range r.Outputs {
		if out != nil {
			out.up = r
		}
	}
	for i, in := range r.Inputs {
		if in == nil {
			continue
		}
		g := r.groups[i]
		w := &r.words[g.w]
		in.occ, in.shift = &w.occ, g.shift
		for v, vc := range in.VCs {
			vc.host, vc.input, vc.wi, vc.sh = r, uint8(i), uint8(g.w), g.shift+uint8(v)
			r.flatVC[g.w<<6|int(g.shift)+v] = vc
			b := vc.bit()
			if vc.Len() > 0 {
				w.occ |= b
			}
			if vc.Route != nil {
				w.routed |= b
				vc.Route.feeder = vc
				if vc.Route.SpaceFor() {
					w.ready |= b
				}
			}
		}
	}
}

// setRoute records an allocated route on an input VC and its words.
func (r *Router) setRoute(vc *VC, out *VC, port uint8) {
	vc.Route = out
	vc.RoutePort = port
	out.feeder = vc
	w := &r.words[vc.wi]
	w.routed |= vc.bit()
	if out.SpaceFor() {
		w.ready |= vc.bit()
	}
}

// ActiveStateReady reports whether initState has run; the invariant checker
// skips mask cross-checks on routers that have never stepped.
func (r *Router) ActiveStateReady() bool { return r.flatVC != nil }

// InputRoutedWord returns the routed bitmask of input channel i, bit v for
// VCs[v] (as do the two below: the group is shifted down out of its word).
func (r *Router) InputRoutedWord(i int) uint64 {
	g := r.groups[i]
	return r.words[g.w].routed & g.mask >> g.shift
}

// InputReadyWord returns the credit-ready bitmask of input channel i.
func (r *Router) InputReadyWord(i int) uint64 {
	g := r.groups[i]
	return r.words[g.w].ready & g.mask >> g.shift
}

// InputParkedWord returns the parked-header bitmask of input channel i.
func (r *Router) InputParkedWord(i int) uint64 {
	g := r.groups[i]
	return r.words[g.w].parked & g.mask >> g.shift
}

// Unpark makes every parked header eligible for allocation again. Releasing
// one of this router's output VCs calls it; so must whatever else can turn a
// failed attempt into a success (a change of the candidate sets).
func (r *Router) Unpark() {
	for i := range r.words {
		r.words[i].parked = 0
	}
}

// VACounts returns the header allocation attempts so far and their grants.
func (r *Router) VACounts() (attempts, grants int64) { return r.vaAttempts, r.vaGrants }

// InputsIdle reports whether every input VC is empty of committed flits —
// the router's deactivation condition for the network's active-set sweep.
// A router with buffered-but-blocked worms stays active; only truly empty
// routers are skipped, so no credit-wakeup plumbing is needed.
func (r *Router) InputsIdle() bool {
	if r.flatVC == nil {
		r.initState()
	}
	var occ uint64
	for i := range r.words {
		occ |= r.words[i].occ
	}
	return occ == 0
}

// SkipIdle advances round-robin state by k cycles' worth of idle steps in
// O(1). A Step with every input VC empty mutates nothing but vaRR (allocate
// visits no VC and increments the cursor; arbitrate gathers zero requests,
// leaving saRR and pickRR untouched), so k skipped idle cycles fold into a
// single addition. The network calls this to catch a sleeping router up
// before it re-enters the sweep, keeping results byte-identical to dense
// stepping.
func (r *Router) SkipIdle(k int64) {
	r.vaRR += int(k)
}

// outputVC resolves a routing candidate to the concrete VC object.
func (r *Router) outputVC(c routing.PortVC) *VC {
	return r.Outputs[c.Port].VCs[c.VC]
}

// pickCandidate chooses among free candidates: rotating over the free
// non-escape (adaptive) ones so traffic spreads across the channel set, and
// falling back to the first free escape candidate, preserving Duato's
// adaptive-first preference. Two passes over the candidate list (count, then
// select the rotation's pick) keep the stage allocation-free.
func (r *Router) pickCandidate(cands []routing.PortVC) (routing.PortVC, bool) {
	freeAdaptive := 0
	var escape routing.PortVC
	haveEscape := false
	for _, c := range cands {
		if r.outputVC(c).Owner != nil {
			continue
		}
		if c.Escape {
			if !haveEscape {
				escape = c
				haveEscape = true
			}
			continue
		}
		freeAdaptive++
	}
	if freeAdaptive > 0 {
		r.pickRR++
		k := r.pickRR % freeAdaptive
		for _, c := range cands {
			if c.Escape || r.outputVC(c).Owner != nil {
				continue
			}
			if k == 0 {
				return c, true
			}
			k--
		}
	}
	if haveEscape {
		return escape, true
	}
	return routing.PortVC{}, false
}

// allocate performs virtual-channel allocation for every input VC whose
// front flit is an unrouted header: the first candidate VC not owned by
// another packet is claimed. Candidate order encodes policy preference
// (adaptive first, escape last). Only occupied, unrouted, unparked VCs are
// visited — occ &^ routed &^ parked — input by input from the rotating
// cursor and in ascending bit order within an input, which is exactly the
// VC order the dense scan used, so arbitration outcomes are unchanged. A
// failed attempt changes nothing (pickCandidate advances its cursor only on
// success, the stall event fires once per blockage), so skipping the attempts
// that must fail again is invisible; most steps have no such VC at all and
// end after one test per word.
func (r *Router) allocate(now int64) {
	va := r.vaRR
	r.vaRR++
	var pend uint64
	for wi := range r.words {
		w := &r.words[wi]
		pend |= w.occ &^ w.routed &^ w.parked
	}
	if pend == 0 {
		return
	}
	n := len(r.Inputs)
	i := va % n
	for k := 0; k < n; k++ {
		if i == n {
			i = 0
		}
		g := &r.groups[i]
		wd := &r.words[g.w]
		// Read when input i is reached: a grant only changes the granted
		// VC's own bits, which lie in its own input's group.
		w := wd.occ &^ wd.routed &^ wd.parked & g.mask
		for ; w != 0; w &= w - 1 {
			vc := r.flatVC[g.w<<6|bits.TrailingZeros64(w)]
			pkt := vc.Owner // occ bit set ⇒ committed flits of Owner present
			if vc.front != 0 || pkt.BeingRescued {
				continue // no header at the front
			}
			r.vaAttempts++
			if pick, ok := r.pickCandidate(r.policy.Candidates(r.ID, pkt)); ok {
				r.vaGrants++
				out := r.outputVC(pick)
				out.Owner = pkt
				r.setRoute(vc, out, pick.Port)
				if r.Bus != nil {
					r.emitVC(obs.KindVCAlloc, now, pkt, out.Ch.ID, out.Index)
				}
				vc.stallNoted = false
				continue
			}
			wd.parked |= vc.bit()
			if r.Bus != nil && !vc.stallNoted {
				// Once per blockage: it does not re-fire while the same
				// header stays blocked.
				vc.stallNoted = true
				r.emitVC(obs.KindVCStall, now, pkt, vc.Ch.ID, vc.Index)
			}
		}
		i++
	}
}

// emitVC traces a header's allocation outcome: pkt granted output channel ch's
// VC vc (vc-alloc), or first refused at input channel ch's VC vc (vc-stall).
func (r *Router) emitVC(kind obs.Kind, now int64, pkt *message.Packet, ch int, vc uint8) {
	r.Bus.Emit(obs.Event{
		Cycle: now, Kind: kind, Node: int(r.ID), Arg: int64(ch), Aux: int64(vc),
		Pkt: int64(pkt.ID), Txn: int64(pkt.Msg.Txn), MsgType: pkt.Msg.Type.String(),
		Src: pkt.Msg.Src, Dst: pkt.Msg.Dst,
	})
}

// arbitrate moves at most one flit per output physical channel and at most
// one flit per input physical channel, round-robin fair across both.
func (r *Router) arbitrate(now int64) {
	// The requesters are the live VCs: occupied (flit present), routed and
	// credit-ready (downstream space, pre-computed by the credit updates, so
	// worms blocked on a full target cost nothing here). With none, no output
	// can have a requester and no saRR counter would advance in the dense
	// scan either.
	tot, lastW, lastWi := 0, uint64(0), 0
	for wi := range r.words {
		w := &r.words[wi]
		if lw := w.occ & w.routed & w.ready; lw != 0 {
			tot += bits.OnesCount64(lw)
			lastW, lastWi = lw, wi
		}
	}
	if tot == 0 {
		return
	}
	if tot == 1 {
		// One requester — the dominant case at light load: it wins its
		// output unopposed, and no other output has a request, so no other
		// saRR counter would advance.
		vc := r.flatVC[lastWi<<6|bits.TrailingZeros64(lastW)]
		o := vc.RoutePort
		if r.Outputs[o].Stalled {
			return
		}
		r.saRR[o]++
		target := vc.Route
		target.Stage(vc.Dequeue(now))
		return
	}
	// One pass over the live bits builds each output port's request words.
	// They stay valid through this cycle's moves — targets are distinct
	// (exclusive VC ownership) and a move only flips bits of the mover's own
	// input group, which is charged. No BeingRescued test is needed:
	// Rescue.evacuate and Network.DropWorm both set the flag
	// and strip the worm from every VC in the same call, so a committed flit
	// of a rescued packet never exists when arbitration runs (the flag only
	// matters to detection-level scans).
	nw := len(r.words)
	var used [routing.MaxPorts / 64]uint64 // outputs with a request
	for wi := range r.words {
		w := &r.words[wi]
		for lw := w.occ & w.routed & w.ready; lw != 0; lw &= lw - 1 {
			o := int(r.flatVC[wi<<6|bits.TrailingZeros64(lw)].RoutePort)
			r.req[o*nw+wi] |= lw & -lw
			used[o>>6] |= 1 << uint(o&63)
		}
	}
	// Requesting outputs ascending — the dense output order. Within one,
	// ascending bits are the dense (input, vc) request order; bits of inputs
	// an earlier output charged are dropped first, as the dense scan dropped
	// them at gather time.
	charged := r.req[len(r.Outputs)*nw:]
	for ui := 0; ui<<6 < len(r.Outputs); ui++ {
		for u := used[ui]; u != 0; u &= u - 1 {
			o := ui<<6 | bits.TrailingZeros64(u)
			req := r.req[o*nw:][:nw]
			m := 0
			if !r.Outputs[o].Stalled {
				for wi, c := range charged {
					req[wi] &^= c
					m += bits.OnesCount64(req[wi])
				}
			}
			if m > 0 {
				k := 0
				if m > 1 {
					k = r.saRR[o] % m
				}
				r.saRR[o]++
				wi := 0
				for c := bits.OnesCount64(req[0]); k >= c; c = bits.OnesCount64(req[wi]) {
					k -= c
					wi++
				}
				q := req[wi]
				for ; k > 0; k-- {
					q &= q - 1
				}
				winner := r.flatVC[wi<<6|bits.TrailingZeros64(q)]
				charged[wi] |= r.groups[winner.input].mask // the whole input's bandwidth
				// Capture the target before Dequeue, which clears Route when the
				// tail flit departs.
				target := winner.Route
				target.Stage(winner.Dequeue(now))
			}
			clear(req)
		}
	}
	clear(charged)
}

// Step runs one cycle of the router pipeline: VC allocation then switch
// arbitration and link traversal. Staged arrivals are committed by the
// network after every component has stepped.
func (r *Router) Step(now int64) {
	if r.flatVC == nil {
		r.initState()
	}
	if now < r.FrozenUntil {
		return
	}
	r.allocate(now)
	if r.Prof != nil {
		r.Prof.Mark(telemetry.PhaseRouting)
	}
	r.arbitrate(now)
	if r.Prof != nil {
		r.Prof.Mark(telemetry.PhaseArbitration)
	}
}

// RescuablePackets returns the packets eligible for a Disha rescue at this
// router: the header at the front of an input VC that the channel-wait-for
// graph observer has flagged as part of a knot, or — as a fallback when
// scans are disabled or stale — one blocked beyond the (large) timeout.
// Knot gating matters because blocked-time alone cannot distinguish
// deadlock from saturation-level congestion; rescuing merely congested
// packets through the one-at-a-time recovery lane slows them down.
func (r *Router) RescuablePackets(now int64, timeout int64) []*message.Packet {
	return r.scanInputs(func(vc *VC) bool {
		return (vc.Knotted && vc.Len() > 0) || vc.Blocked(now, timeout)
	})
}

// scanInputs collects distinct packets whose header fronts an input VC
// matching pred. The result aliases a per-router scratch slice (valid until
// the next scan); a worm spans few VCs, so linear dedup beats a map and
// keeps the per-token-arrival scan allocation-free. The rescue predicate
// implies committed flits are present, so the walk follows the occupancy
// bitmask instead of visiting every VC.
func (r *Router) scanInputs(pred func(*VC) bool) []*message.Packet {
	if r.flatVC == nil {
		r.initState()
	}
	out := r.scanBuf[:0]
	for wi := range r.words {
		for w := r.words[wi].occ; w != 0; w &= w - 1 {
			vc := r.flatVC[wi<<6|bits.TrailingZeros64(w)]
			if !pred(vc) {
				continue
			}
			pkt := vc.Owner
			if vc.front != 0 || pkt.BeingRescued {
				continue
			}
			dup := false
			for _, p := range out {
				if p == pkt {
					dup = true
					break
				}
			}
			if !dup {
				out = append(out, pkt)
			}
		}
	}
	r.scanBuf = out
	return out
}
