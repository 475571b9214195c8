package router

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/message"
	"repro/internal/routing"
	"repro/internal/topology"
)

// refRouter steps a Router the naive way — the "dense scan" the comments in
// router.go hold the word arithmetic to. It reads canonical VC state only
// (Len, Front, Route, RoutePort, Route.SpaceFor, Owner, Stalled) and the
// router's cursors and counters; initState never runs on its router, so no
// word, flat index, feeder or back-pointer exists there to lean on.
type refRouter struct {
	r *Router
	// parked is the reference's idea of a parked header: the packet whose
	// attempt at this VC failed, forgotten when any output VC that was owned
	// after the previous step has been released since, or the harness says
	// the candidate sets may have changed.
	parked map[*VC]*message.Packet
	owned  map[*VC]bool
}

func (ref *refRouter) step(now int64) {
	r := ref.r
	for _, out := range r.Outputs {
		if out == nil {
			continue
		}
		for _, vc := range out.VCs {
			if ref.owned[vc] && vc.Owner == nil {
				clear(ref.parked)
			}
		}
	}

	// VC allocation: every input VC, inputs rotating from vaRR.
	for k := range r.Inputs {
		in := r.Inputs[(r.vaRR+k)%len(r.Inputs)]
		if in == nil {
			continue
		}
		for _, vc := range in.VCs {
			f, ok := vc.Front()
			if !ok || vc.Route != nil || !f.Head() || f.Pkt.BeingRescued || ref.parked[vc] == f.Pkt {
				continue
			}
			r.vaAttempts++
			var adaptive []routing.PortVC
			var pick routing.PortVC // the first free escape candidate, failing a free adaptive one
			found := false
			for _, c := range r.policy.Candidates(r.ID, f.Pkt) {
				switch {
				case r.Outputs[c.Port].VCs[c.VC].Owner != nil:
				case !c.Escape:
					adaptive = append(adaptive, c)
				case !found:
					pick, found = c, true
				}
			}
			if len(adaptive) > 0 {
				r.pickRR++
				pick, found = adaptive[r.pickRR%len(adaptive)], true
			}
			if !found {
				ref.parked[vc] = f.Pkt
				continue
			}
			r.vaGrants++
			out := r.Outputs[pick.Port].VCs[pick.VC]
			out.Owner, vc.Route, vc.RoutePort = f.Pkt, out, pick.Port
		}
	}
	r.vaRR++

	// Switch arbitration: requesters per output in (input, vc) order, one
	// winner per output and per input channel.
	reqs := make([][]*VC, len(r.Outputs))
	for _, in := range r.Inputs {
		if in == nil {
			continue
		}
		for _, vc := range in.VCs {
			if vc.Len() > 0 && vc.Route != nil && vc.Route.SpaceFor() {
				reqs[vc.RoutePort] = append(reqs[vc.RoutePort], vc)
			}
		}
	}
	charged := map[*Channel]bool{}
	for o, all := range reqs {
		var live []*VC
		for _, vc := range all {
			if !charged[vc.Ch] {
				live = append(live, vc)
			}
		}
		if len(live) == 0 || r.Outputs[o].Stalled {
			continue
		}
		w := live[r.saRR[o]%len(live)]
		r.saRR[o]++
		charged[w.Ch] = true
		target := w.Route
		target.Stage(w.Dequeue(now))
	}

	clear(ref.owned)
	for _, out := range r.Outputs {
		if out == nil {
			continue
		}
		for _, vc := range out.VCs {
			ref.owned[vc] = vc.Owner != nil
		}
	}
}

// blocked is BlockedPackets the naive way: every input VC in order.
func (ref *refRouter) blocked(now, threshold int64) []message.PacketID {
	var ids []message.PacketID
	seen := map[*message.Packet]bool{}
	for _, in := range ref.r.Inputs {
		if in == nil {
			continue
		}
		for _, vc := range in.VCs {
			f, ok := vc.Front()
			if ok && vc.Blocked(now, threshold) && f.Head() && !f.Pkt.BeingRescued && !seen[f.Pkt] {
				seen[f.Pkt] = true
				ids = append(ids, f.Pkt.ID)
			}
		}
	}
	return ids
}

// fuzzPolicy hands each packet the candidate list drawn for it.
type fuzzPolicy map[message.PacketID][]routing.PortVC

func (p fuzzPolicy) Candidates(_ topology.NodeID, pkt *message.Packet) []routing.PortVC {
	return p[pkt.ID]
}

// fuzzSrc yields the fuzz input byte by byte and, once it is used up, a
// xorshift stream seeded from it, so a short input still drives a long run.
type fuzzSrc struct {
	data []byte
	x    uint64
}

func (s *fuzzSrc) byte() byte {
	if len(s.data) > 0 {
		b := s.data[0]
		s.data = s.data[1:]
		s.x = s.x*131 + uint64(b) + 1
		return b
	}
	s.x ^= s.x << 13
	s.x ^= s.x >> 7
	s.x ^= s.x << 17
	return byte(s.x >> 32)
}

func (s *fuzzSrc) n(n int) int { return int(s.byte()) % n }

// rig is one stand-alone router with the worms its harness is feeding it.
type rig struct {
	r    *Router
	chs  []*Channel // inputs then outputs, nil ports left out
	pkts map[message.PacketID]*message.Packet
	feed map[*VC]message.Flit // next flit of the worm entering an input VC
}

func newRig(policy Policy, inVCs []int, outVCs, buf, nilPort int) *rig {
	g := &rig{r: New(7, policy, len(inVCs), len(inVCs)), pkts: map[message.PacketID]*message.Packet{}, feed: map[*VC]message.Flit{}}
	for i, n := range inVCs {
		if i != nilPort {
			g.r.Inputs[i] = NewChannel(KindLink, 1, 7, 0, 0, i, n, buf)
			g.chs = append(g.chs, g.r.Inputs[i])
		}
	}
	for o := range inVCs {
		if o != nilPort {
			g.r.Outputs[o] = NewChannel(KindLink, 7, 1, 0, 0, 100+o, outVCs, buf)
			g.chs = append(g.chs, g.r.Outputs[o])
		}
	}
	return g
}

// vcState appends everything canonical about a VC to buf, packets by ID and
// the route by position, so the same VC of two rigs compares as a slice:
// committed and staged length, LastMove, owner, route (channel, VC, port),
// then the buffered flits.
func vcState(buf []int64, vc *VC) []int64 {
	buf = append(buf, int64(vc.Len()), int64(vc.StagedLen()), vc.LastMove, 0, -1, -1, int64(vc.RoutePort))
	if vc.Owner != nil {
		buf[3] = int64(vc.Owner.ID)
	}
	if vc.Route != nil {
		buf[4], buf[5] = int64(vc.Route.Ch.ID), int64(vc.Route.Index)
	}
	vc.ForEachFlit(func(f message.Flit) { buf = append(buf, int64(f.Pkt.ID), int64(f.Idx)) })
	return buf
}

// sched returns what a router's Checkpoint names: its cursors and its
// deadlock-buffer and freeze state.
func sched(r *Router) []uint64 {
	w := ckpt.NewWriter(0, 0)
	r.Checkpoint(w)
	return w.Words()
}

// FuzzRouterStep drives two identical stand-alone routers through the same
// traffic, one with Router.Step and one with the naive reference above, and
// compares every buffer, Owner, Route, RoutePort, the round-robin cursors and
// the allocation counters after every cycle (and BlockedPackets, whose scan
// walks the same words). The input picks the shape — 3 to 6 ports, or in half
// the draws of 3 a wide router of 7 up to routing.MaxPorts, of which one is
// missing; 1 to 24 VCs on each input (1 to 4 on a wide router; one word or
// many); buffers of 1 to 3
// flits — and then drives the harness: worms of 1 to 4 flits with
// candidate lists drawn from the input (adaptive and escape, any output VC)
// entering free input VCs, output VCs drained a flit at a time (the credit
// return, and on a tail the release that unparks), outputs stalled and
// unstalled, whole worms evacuated as a rescue does, and the words rebuilt
// from canonical state as a restore does. On the stepped router the words are
// also held to the canonical state directly.
//
// Mutation-checked: charging only the winner's bit instead of its input's
// whole group, visiting the requesting outputs in descending order, and not
// padding to the next word when a group would straddle each fail committed
// seeds (the first two all of them, the last the 13- and the 24-VC one); so
// does collecting the requesting outputs in a 32-bit set, which loses every
// output from 32 up (the 40-port seed).
func FuzzRouterStep(f *testing.F) {
	f.Add([]byte{2, 0, 1, 3, 3, 3, 3, 3, 3})                                   // 5 ports x 4 VCs: one word
	f.Add([]byte{3, 2, 0, 5, 12, 12, 12, 12, 12, 12})                          // 6 ports x 13 VCs: 65 bits, padded into two words
	f.Add([]byte{3, 5, 2, 5, 23, 19, 6, 12, 23, 0})                            // 24+20+7+13 fill a word exactly, 24 more start the second
	f.Add([]byte{3, 5, 1, 5, 23, 23, 23, 23, 23, 23})                          // 6 ports x 24 VCs: three words
	f.Add(append([]byte{0, 0, 33, 39, 1, 3}, bytes.Repeat([]byte{3}, 40)...))  // 40 ports x 4 VCs: outputs past 32
	f.Add(append([]byte{0, 0, 249, 0, 0, 0}, bytes.Repeat([]byte{0}, 256)...)) // 256 ports x 1 VC, the admitted bound
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &fuzzSrc{data: data, x: 0x9e3779b97f4a7c15}
		ports := 3 + src.n(4)
		if ports == 3 && src.n(2) == 0 { // a wide router: 7 ports up to the admitted bound
			ports = 7 + src.n(routing.MaxPorts-6)
		}
		nilPort, buf, outVCs := src.n(ports), 1+src.n(3), 1+src.n(6)
		inVCs, most := make([]int, ports), 24
		if ports > 6 {
			most = 4 // wide enough already: an exec stays cheap
		}
		for i := range inVCs {
			inVCs[i] = 1 + src.n(most)
		}
		policy := fuzzPolicy{}
		step, ref := newRig(policy, inVCs, outVCs, buf, nilPort), newRig(policy, inVCs, outVCs, buf, nilPort)
		naive := &refRouter{r: ref.r, parked: map[*VC]*message.Packet{}, owned: map[*VC]bool{}}
		rigs := []*rig{step, ref}
		livePort := func() int { // a port that exists
			p := src.n(ports - 1)
			if p >= nilPort {
				p++
			}
			return p
		}
		nextID := message.PacketID(1)
		var sa, sb []int64

		for now := int64(1); now <= 200; now++ {
			if src.n(16) == 0 { // a restore: derived state rebuilt, every header retried
				for _, in := range step.r.Inputs {
					if in != nil {
						in.ResetDerived()
					}
				}
				step.r.RebuildState()
				clear(naive.parked)
			}
			for ops := src.n(12); ops > 0; ops-- {
				op, p := src.n(8), livePort()
				switch {
				case op < 3: // feed an input VC: the next flit of its worm, or a new worm
					v := src.n(inVCs[p])
					if vc := step.r.Inputs[p].VCs[v]; !vc.SpaceFor() || (vc.Owner != nil && step.feed[vc].Pkt == nil) {
						break // full, or the worm is all in and not yet out
					}
					if vc := step.r.Inputs[p].VCs[v]; vc.Owner == nil {
						flits, cands := 1+src.n(4), make([]routing.PortVC, 1+src.n(4))
						for i := range cands {
							cands[i] = routing.PortVC{Port: uint8(livePort()), VC: uint8(src.n(outVCs)), Escape: src.n(3) == 0}
						}
						policy[nextID] = cands
						for _, g := range rigs {
							pkt := mkPacket(int(nextID), flits)
							g.pkts[nextID] = pkt
							g.r.Inputs[p].VCs[v].Owner = pkt
							g.feed[g.r.Inputs[p].VCs[v]] = message.Flit{Pkt: pkt}
						}
						nextID++
					}
					for _, g := range rigs {
						vc := g.r.Inputs[p].VCs[v]
						fl := g.feed[vc]
						vc.Stage(fl)
						if fl.Tail() {
							delete(g.feed, vc)
						} else {
							fl.Idx++
							g.feed[vc] = fl
						}
					}
				case op < 6: // drain an output VC by one flit
					v := src.n(outVCs)
					for _, g := range rigs {
						if vc := g.r.Outputs[p].VCs[v]; vc.Len() > 0 {
							vc.Dequeue(now)
						}
					}
				case op == 6: // stall or release an output for the coming cycle
					stalled := src.n(2) == 0
					for _, g := range rigs {
						g.r.Outputs[p].Stalled = stalled
					}
				default: // evacuate the worm owning an input VC from everywhere
					owner := step.r.Inputs[p].VCs[src.n(inVCs[p])].Owner
					if owner == nil {
						break
					}
					for _, g := range rigs {
						pkt := g.pkts[owner.ID]
						pkt.BeingRescued = true
						for _, ch := range g.chs {
							for _, vc := range ch.VCs {
								vc.Evacuate(pkt, now)
								if g.feed[vc].Pkt == pkt {
									delete(g.feed, vc)
								}
							}
						}
					}
				}
			}

			step.r.Step(now)
			naive.step(now)
			for _, g := range rigs {
				for _, ch := range g.chs {
					ch.Commit(now)
				}
			}

			if got, want := sched(step.r), sched(ref.r); !slices.Equal(got, want) {
				t.Fatalf("cycle %d (inputs %v, port %d missing): cursors and lane state %v, reference %v", now, inVCs, nilPort, got, want)
			}
			a, g := step.r.VACounts()
			if ra, rg := ref.r.VACounts(); a != ra || g != rg {
				t.Fatalf("cycle %d (inputs %v, port %d missing): %d attempts %d grants, reference %d and %d", now, inVCs, nilPort, a, g, ra, rg)
			}
			for c, ch := range step.chs {
				for v, vc := range ch.VCs {
					sa, sb = vcState(sa[:0], vc), vcState(sb[:0], ref.chs[c].VCs[v])
					if !slices.Equal(sa, sb) {
						t.Fatalf("cycle %d (inputs %v, port %d missing): channel %d vc %d is %v, reference %v", now, inVCs, nilPort, ch.ID, v, sa, sb)
					}
				}
			}
			var got []message.PacketID
			for _, pkt := range step.r.BlockedPackets(now, 3) {
				got = append(got, pkt.ID)
			}
			if want := naive.blocked(now, 3); !reflect.DeepEqual(got, want) {
				t.Fatalf("cycle %d: BlockedPackets %v, reference %v", now, got, want)
			}
			for i, in := range step.r.Inputs {
				if in == nil {
					continue
				}
				occ, routed, ready := in.OccMask(), step.r.InputRoutedWord(i), step.r.InputReadyWord(i)
				if parked := step.r.InputParkedWord(i); parked&^(occ&^routed) != 0 {
					t.Fatalf("cycle %d: input %d parked=%#x beyond occ=%#x &^ routed=%#x", now, i, parked, occ, routed)
				}
				for v, vc := range in.VCs {
					if occ>>uint(v)&1 == 1 != (vc.Len() > 0) || routed>>uint(v)&1 == 1 != (vc.Route != nil) ||
						ready>>uint(v)&1 == 1 != (vc.Route != nil && vc.Route.SpaceFor()) {
						t.Fatalf("cycle %d: %v words occ=%#x routed=%#x ready=%#x disagree with len=%d route=%v", now, vc, occ, routed, ready, vc.Len(), vc.Route)
					}
				}
			}
		}
	})
}
