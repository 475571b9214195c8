package router

import (
	"fmt"
	"math/bits"

	"repro/internal/message"
	"repro/internal/routing"
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

// Prof receives phase-boundary marks from the router pipeline: each call
// charges the wall time since the previous mark to that phase. The network
// installs the cycle profiler here when one is attached; a nil Prof costs
// one branch per Step and nothing else.
type Prof interface {
	// MarkRouting closes the virtual-channel-allocation segment.
	MarkRouting()
	// MarkArbitration closes the switch-arbitration segment.
	MarkArbitration()
}

// Obs receives router-level observability events. The network layer
// installs an implementation when tracing is enabled; a nil Obs costs one
// branch per event site and nothing else.
type Obs interface {
	// VCAllocated fires when a header is granted an output virtual
	// channel.
	VCAllocated(now int64, router topology.NodeID, pkt *message.Packet, outCh, outVC int)
	// VCStalled fires once per blockage when a header fails allocation
	// (every candidate output VC owned); it does not re-fire while the
	// same header stays blocked.
	VCStalled(now int64, router topology.NodeID, pkt *message.Packet, inCh, inVC int)
}

// Router is one wormhole router: link input channels plus local injection
// channels feed a crossbar to link output channels and local ejection
// channels. It also hosts the flit-sized Disha deadlock buffer (DB); the
// recovery-lane pipeline that uses it lives in the network layer's rescue
// engine, which has global token state.
type Router struct {
	ID topology.NodeID

	// Obs is the optional observability hook; nil when tracing is off.
	Obs Obs

	// Prof is the optional cycle-profiler hook; nil when profiling is off.
	Prof Prof

	// Inputs: indices 0..dirs-1 are link inputs (flits travelling in
	// direction d arrive on input d), dirs..dirs+bristling-1 are injection
	// channels from local NIs.
	Inputs []*Channel
	// Outputs: indices 0..dirs-1 are link outputs in direction d,
	// dirs..dirs+bristling-1 are ejection channels to local NIs.
	Outputs []*Channel

	policy Policy

	// DBBusy marks the router's Disha deadlock buffer as holding a flit of
	// the packet currently being rescued. Only the token holder's packet
	// may occupy it, so a single flag suffices.
	DBBusy bool

	// FrozenUntil stalls the VA and SA stages while now < FrozenUntil —
	// the router-freeze fault. Buffered flits stay put (upstream staging
	// into this router's inputs is unaffected, bounded by credits), and the
	// zero value means no freeze.
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
	// words holds one occ/routed/ready/parked word group per input channel,
	// packed so a scan touches contiguous cache lines: bit v of words[i].occ
	// is set iff Inputs[i].VCs[v] holds committed flits (it is the channel's
	// one occupancy word — see Channel.occ), bit v of words[i].routed iff
	// that VC has an allocated Route, and bit v of words[i].ready iff that
	// Route currently has buffer space (maintained from the target side
	// through the VC feeder back-pointer — the credit signal). The VC
	// methods (Commit/Dequeue/Evacuate/Stage/ReduceCap) and setRoute
	// maintain the bits at exactly the points the corresponding state
	// changes, so allocate and arbitrate iterate set bits instead of walking
	// every VC, and occ∧routed∧ready enumerates exactly the movable worms.
	//
	// Bit v of words[i].parked marks a header whose last allocation attempt
	// found every candidate output VC owned. allocate skips it until the
	// answer can change: one of this router's output VCs is released
	// (VC.release, through VC.up) or the candidate sets change (Unpark).
	words []inWords

	// vaAttempts/vaGrants count header allocation attempts and the grants
	// among them: exact work counters, the same on every host.
	vaAttempts, vaGrants int64

	// base maps input channel index -> flat VC offset (-1 for nil inputs);
	// flatVC indexes all input VCs in (input, vc) order, so a set bit
	// resolves to its VC without walking Inputs[i].VCs.
	base   []int32
	flatVC []*VC

	// reqBucket buckets arbitration requesters by output port in one pass
	// over the live (occupied ∧ routed ∧ ready) bits, replacing a rescan of
	// every input word per output. Entries are packed codes
	// (input index << 16 | flat VC index) in ascending (input, vc) order,
	// matching the dense gather order exactly.
	reqBucket [][]int32
}

// inWords is one input channel's occupancy/routing/credit/parking bit words.
type inWords struct {
	occ    uint64
	routed uint64
	ready  uint64
	parked uint64
}

// New builds a router shell; the network wires Inputs/Outputs afterwards.
func New(id topology.NodeID, policy Policy, numIn, numOut int) *Router {
	return &Router{
		ID:      id,
		policy:  policy,
		Inputs:  make([]*Channel, numIn),
		Outputs: make([]*Channel, numOut),
		saRR:    make([]int, numOut),
	}
}

// initState builds the bitmask words and the flat VC index from the current
// channel state. It runs once, lazily, on the first Step or input scan: by
// then the network (or a test harness) has wired Inputs, and any pre-filled
// buffers are folded into the masks here. From this point on the VC mutation
// methods keep the words in sync incrementally.
func (r *Router) initState() {
	nIn := len(r.Inputs)
	r.words = make([]inWords, nIn)
	r.base = make([]int32, nIn)
	total := 0
	for i, in := range r.Inputs {
		if in == nil {
			r.base[i] = -1
			continue
		}
		if len(in.VCs) > 64 {
			panic(fmt.Sprintf("router: %d VCs on input %d exceed the 64-bit occupancy word", len(in.VCs), i))
		}
		r.base[i] = int32(total)
		total += len(in.VCs)
	}
	r.flatVC = make([]*VC, total)
	r.reqBucket = make([][]int32, len(r.Outputs))
	for o := range r.reqBucket {
		r.reqBucket[o] = make([]int32, 0, 8)
	}
	for _, out := range r.Outputs {
		if out == nil {
			continue
		}
		for _, vc := range out.VCs {
			vc.up = r
		}
	}
	for i, in := range r.Inputs {
		if in == nil {
			continue
		}
		in.occ = &r.words[i].occ
		for v, vc := range in.VCs {
			vc.host, vc.word = r, int32(i)
			r.flatVC[r.base[i]+int32(v)] = vc
			if vc.Len() > 0 {
				r.words[i].occ |= 1 << uint(v)
			}
			if vc.Route != nil {
				r.words[i].routed |= 1 << uint(v)
				vc.Route.feeder = vc
				if vc.Route.SpaceFor() {
					r.words[i].ready |= 1 << uint(v)
				}
			}
		}
	}
}

// setRoute records an allocated route on an input VC and its words.
func (r *Router) setRoute(vc *VC, out *VC, port int) {
	vc.Route = out
	vc.RoutePort = port
	out.feeder = vc
	r.words[vc.word].routed |= 1 << uint(vc.Index)
	if out.SpaceFor() {
		r.words[vc.word].ready |= 1 << uint(vc.Index)
	}
}

// ActiveStateReady reports whether initState has run; the invariant checker
// skips mask cross-checks on routers that have never stepped.
func (r *Router) ActiveStateReady() bool { return r.flatVC != nil }

// InputRoutedWord returns the routed bitmask word for input channel i.
func (r *Router) InputRoutedWord(i int) uint64 { return r.words[i].routed }

// InputReadyWord returns the credit-ready bitmask word for input channel i.
func (r *Router) InputReadyWord(i int) uint64 { return r.words[i].ready }

// InputParkedWord returns the parked-header bitmask word for input channel i.
func (r *Router) InputParkedWord(i int) uint64 { return r.words[i].parked }

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
// visited — occ &^ routed &^ parked — in ascending bit order, which is
// exactly the VC order the dense scan used, so arbitration outcomes are
// unchanged. A failed attempt changes nothing (pickCandidate advances its
// cursor only on success, the stall event fires once per blockage), so
// skipping the attempts that must fail again is invisible.
//
// Since allocate already touches every input's word triple, it folds in the
// live (occupied ∧ routed ∧ ready) summary that arbitrate needs, sparing
// arbitrate a second scan. The summary for input i is read after the input
// has been processed: setRoute only mutates the words of the VC being
// routed, which belongs to i, so the accumulated view equals the
// post-allocation state arbitrate would recompute. Accumulation order does
// not matter — lastI/lastW are consumed only when tot == 1, in which case a
// single input holds the one live bit.
func (r *Router) allocate(now int64) (live, lastW uint64, tot, lastI int) {
	n := len(r.Inputs)
	i := r.vaRR % n
	for k := 0; k < n; k++ {
		if i == n {
			i = 0
		}
		w := r.words[i].occ &^ r.words[i].routed &^ r.words[i].parked
		if w == 0 {
			if lw := r.words[i].occ & r.words[i].routed & r.words[i].ready; lw != 0 {
				live |= lw
				tot += bits.OnesCount64(lw)
				lastI, lastW = i, lw
			}
			i++
			continue
		}
		for w != 0 {
			v := bits.TrailingZeros64(w)
			w &= w - 1
			vc := r.flatVC[r.base[i]+int32(v)]
			f := vc.ring[vc.head] // occ bit set ⇒ committed flit present
			if !f.Head() || f.Pkt.BeingRescued {
				continue
			}
			r.vaAttempts++
			if pick, ok := r.pickCandidate(r.policy.Candidates(r.ID, f.Pkt)); ok {
				r.vaGrants++
				out := r.outputVC(pick)
				out.Owner = f.Pkt
				r.setRoute(vc, out, pick.Port)
				if r.Obs != nil {
					r.Obs.VCAllocated(now, r.ID, f.Pkt, out.Ch.ID, out.Index)
				}
				vc.stallNoted = false
				continue
			}
			r.words[i].parked |= 1 << uint(v)
			if r.Obs != nil && !vc.stallNoted {
				vc.stallNoted = true
				r.Obs.VCStalled(now, r.ID, f.Pkt, r.Inputs[i].ID, vc.Index)
			}
		}
		if lw := r.words[i].occ & r.words[i].routed & r.words[i].ready; lw != 0 {
			live |= lw
			tot += bits.OnesCount64(lw)
			lastI, lastW = i, lw
		}
		i++
	}
	r.vaRR++
	return
}

// arbitrate moves at most one flit per output physical channel and at most
// one flit per input physical channel, round-robin fair across both. The
// live/tot/lastI/lastW summary of the post-allocation words comes from
// allocate's scan (see there).
func (r *Router) arbitrate(now int64, live, lastW uint64, tot, lastI int) {
	// Fast exit when no VC is occupied, routed and credit-ready: no output
	// can have a requester, so no saRR counter would advance in the dense
	// scan either. The requester count routes the single-worm case —
	// dominant at light load — past the bucket machinery.
	if live == 0 {
		return
	}
	if tot == 1 {
		// One requester: it wins its output unopposed, and no other output
		// has a bucket, so no other saRR counter would advance.
		vc := r.flatVC[r.base[lastI]+int32(bits.TrailingZeros64(lastW))]
		o := vc.RoutePort
		if r.Outputs[o].Stalled {
			return
		}
		r.saRR[o]++
		target := vc.Route
		target.Stage(vc.Dequeue(now))
		return
	}
	// One pass over the live (occupied ∧ routed ∧ ready) bits buckets
	// requesters by output port: flit present and downstream space, with
	// the space predicate pre-computed by the credit updates, so worms
	// blocked on a full target cost nothing here. The predicate is
	// invariant across this cycle's moves — targets are distinct (exclusive
	// VC ownership) and a move only flips the mover's own ready bit. No
	// BeingRescued test is needed: Rescue.evacuate and the fault injector's
	// worm drop both set the flag and strip the worm from every VC in the
	// same call, so a committed flit of a rescued packet never exists when
	// arbitration runs (the flag only matters to detection-level scans).
	// Buckets hold packed codes (input index << 16 | flat VC index) rather
	// than pointers, keeping the append loop free of GC write barriers.
	var used uint32 // outputs with a non-empty bucket
	for i := range r.words {
		w := r.words[i].occ & r.words[i].routed & r.words[i].ready
		for w != 0 {
			v := bits.TrailingZeros64(w)
			w &= w - 1
			flat := r.base[i] + int32(v)
			o := r.flatVC[flat].RoutePort
			r.reqBucket[o] = append(r.reqBucket[o], int32(i)<<16|flat)
			used |= 1 << uint(o)
		}
	}
	// Visit only bucketed outputs, ascending — the dense output order.
	// Buckets are reset after use, so untouched outputs cost nothing.
	var moved uint64 // input channels already charged this cycle
	for used != 0 {
		o := bits.TrailingZeros32(used)
		used &= used - 1
		reqs := r.reqBucket[o]
		r.reqBucket[o] = reqs[:0]
		if r.Outputs[o].Stalled {
			continue
		}
		// Drop requesters whose input channel was charged by an earlier
		// output — the cross-output dependency the dense scan applied at
		// gather time. Bucket order is (input, vc) ascending, so the
		// compacted list matches the dense request list exactly.
		m := 0
		for _, code := range reqs {
			if moved>>uint(code>>16)&1 == 0 {
				reqs[m] = code
				m++
			}
		}
		if m == 0 {
			continue
		}
		k := 0
		if m > 1 {
			k = r.saRR[o] % m
		}
		code := reqs[k]
		r.saRR[o]++
		moved |= 1 << uint(code>>16) // charge the winner's input bandwidth
		winner := r.flatVC[code&0xffff]
		// Capture the target before Dequeue, which clears Route when the
		// tail flit departs.
		target := winner.Route
		target.Stage(winner.Dequeue(now))
	}
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
	if r.Prof == nil {
		live, lastW, tot, lastI := r.allocate(now)
		r.arbitrate(now, live, lastW, tot, lastI)
		return
	}
	live, lastW, tot, lastI := r.allocate(now)
	r.Prof.MarkRouting()
	r.arbitrate(now, live, lastW, tot, lastI)
	r.Prof.MarkArbitration()
}

// BlockedPackets returns the distinct packets whose header flit sits
// unmoved at the front of one of this router's input VCs for more than
// threshold cycles — the router-level timeout detector used by progressive
// recovery under true fully adaptive routing.
func (r *Router) BlockedPackets(now int64, threshold int64) []*message.Packet {
	return r.scanInputs(func(vc *VC) bool { return vc.Blocked(now, threshold) })
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
// keeps the per-token-arrival scan allocation-free. Both predicates used by
// the detection scans imply committed flits are present, so the walk
// follows the occupancy bitmask instead of visiting every VC.
func (r *Router) scanInputs(pred func(*VC) bool) []*message.Packet {
	if r.flatVC == nil {
		r.initState()
	}
	out := r.scanBuf[:0]
	for i := range r.Inputs {
		w := r.words[i].occ
		for w != 0 {
			v := bits.TrailingZeros64(w)
			w &= w - 1
			vc := r.flatVC[r.base[i]+int32(v)]
			if !pred(vc) {
				continue
			}
			f := vc.ring[vc.head]
			if !f.Head() || f.Pkt.BeingRescued {
				continue
			}
			dup := false
			for _, p := range out {
				if p == f.Pkt {
					dup = true
					break
				}
			}
			if !dup {
				out = append(out, f.Pkt)
			}
		}
	}
	r.scanBuf = out
	return out
}
