package router

import (
	"testing"

	"repro/internal/message"
	"repro/internal/routing"
	"repro/internal/topology"
)

// stubPolicy routes every packet to a fixed (port, vc) list.
type stubPolicy struct{ cands []routing.PortVC }

func (p stubPolicy) Candidates(topology.NodeID, *message.Packet) []routing.PortVC {
	return p.cands
}

func mkPacket(id int, flits int) *message.Packet {
	m := message.NewMessage(message.TxnID(id), message.M1, 0, 0, 1, flits, 0)
	return &message.Packet{ID: message.PacketID(id), Msg: m}
}

// fill claims vc for pkt and stages and commits its first n flits.
func fill(vc *VC, pkt *message.Packet, n int, now int64) {
	vc.Owner = pkt
	for i := 0; i < n; i++ {
		vc.Stage(message.Flit{Pkt: pkt, Idx: i})
	}
	vc.Commit(now)
}

func TestVCStageCommitDequeue(t *testing.T) {
	ch := NewChannel(KindLink, 0, 1, 0, 0, 0, 1, 2)
	vc := ch.VCs[0]
	pkt := mkPacket(1, 2)
	if _, ok := vc.Front(); ok {
		t.Fatal("empty VC has a front")
	}
	vc.Owner = pkt
	vc.Stage(message.Flit{Pkt: pkt, Idx: 0})
	if _, ok := vc.Front(); ok {
		t.Fatal("staged flit visible before commit")
	}
	vc.Commit(1)
	f, ok := vc.Front()
	if !ok || !f.Head() || f.Pkt != pkt {
		t.Fatal("header not at front after commit")
	}
	got := vc.Dequeue(2)
	if got.Idx != 0 {
		t.Fatal("wrong flit dequeued")
	}
	if vc.Owner != pkt {
		t.Fatal("ownership cleared before tail")
	}
	vc.Stage(message.Flit{Pkt: pkt, Idx: 1})
	vc.Commit(3)
	if tail := vc.Dequeue(4); tail.Pkt != pkt || !tail.Tail() {
		t.Fatalf("tail dequeue returned %+v", tail)
	}
	if vc.Owner != nil || vc.Route != nil {
		t.Fatal("tail dequeue did not free the VC")
	}
}

func TestVCSpaceAccounting(t *testing.T) {
	ch := NewChannel(KindLink, 0, 1, 0, 0, 0, 1, 2)
	vc := ch.VCs[0]
	pkt := mkPacket(1, 4)
	if !vc.SpaceFor() {
		t.Fatal("empty VC reports no space")
	}
	vc.Owner = pkt
	vc.Stage(message.Flit{Pkt: pkt, Idx: 0})
	if !vc.SpaceFor() {
		t.Fatal("half-full (staged) VC reports no space")
	}
	vc.Stage(message.Flit{Pkt: pkt, Idx: 1})
	if vc.SpaceFor() {
		t.Fatal("full VC reports space (staged must count)")
	}
	vc.Commit(1)
	if vc.SpaceFor() {
		t.Fatal("full VC reports space after commit")
	}
}

func TestVCStageOverflowPanics(t *testing.T) {
	ch := NewChannel(KindLink, 0, 1, 0, 0, 0, 1, 1)
	vc := ch.VCs[0]
	pkt := mkPacket(1, 4)
	vc.Owner = pkt
	vc.Stage(message.Flit{Pkt: pkt, Idx: 0})
	defer func() {
		if recover() == nil {
			t.Fatal("overflow did not panic")
		}
	}()
	vc.Stage(message.Flit{Pkt: pkt, Idx: 1})
}

func TestVCBlockedDetection(t *testing.T) {
	ch := NewChannel(KindLink, 0, 1, 0, 0, 0, 1, 2)
	vc := ch.VCs[0]
	pkt := mkPacket(1, 2)
	fill(vc, pkt, 1, 10)
	if vc.Blocked(20, 25) {
		t.Fatal("blocked before threshold")
	}
	if !vc.Blocked(40, 25) {
		t.Fatal("not blocked after threshold")
	}
	vc.Dequeue(41)
	if vc.Blocked(100, 25) {
		t.Fatal("empty VC reported blocked")
	}
}

func TestEvacuate(t *testing.T) {
	ch := NewChannel(KindLink, 0, 1, 0, 0, 0, 2, 2)
	vc := ch.VCs[0]
	pkt := mkPacket(1, 2)
	other := mkPacket(2, 2)
	fill(vc, pkt, 2, 0)
	if n := vc.Evacuate(other, 5); n != 0 {
		t.Fatal("evacuated a non-owner packet")
	}
	if n := vc.Evacuate(pkt, 5); n != 2 {
		t.Fatalf("evacuated %d flits, want 2", n)
	}
	if vc.Owner != nil || vc.Len() != 0 {
		t.Fatal("evacuation did not clear the VC")
	}
}

// buildRouter wires a 2-port router: input channel 0, output channel 0, with
// a stub policy sending everything to output 0 VC 0.
func buildRouter(vcs, buf int) (*Router, *Channel, *Channel) {
	r := New(0, stubPolicy{cands: []routing.PortVC{{Port: 0, VC: 0}}}, 1, 1)
	in := NewChannel(KindLink, 1, 0, 0, 0, 0, vcs, buf)
	out := NewChannel(KindLink, 0, 1, 0, 0, 1, vcs, buf)
	r.Inputs[0] = in
	r.Outputs[0] = out
	return r, in, out
}

func TestRouterForwardsWorm(t *testing.T) {
	r, in, out := buildRouter(1, 2)
	pkt := mkPacket(1, 3)
	inVC := in.VCs[0]
	inVC.Owner = pkt
	// Feed the worm flit by flit, stepping the router.
	fed := 0
	for cycle := int64(0); cycle < 20; cycle++ {
		if fed < 3 && inVC.SpaceFor() {
			inVC.Stage(message.Flit{Pkt: pkt, Idx: fed})
			fed++
		}
		r.Step(cycle)
		in.Commit(cycle)
		out.Commit(cycle)
		// Drain the output as a downstream would.
		for out.VCs[0].Len() > 0 {
			out.VCs[0].Dequeue(cycle)
		}
	}
	if fed != 3 {
		t.Fatalf("only fed %d flits", fed)
	}
	if inVC.Len() != 0 || inVC.Owner != nil {
		t.Fatal("input VC not drained/freed")
	}
	if out.VCs[0].Owner != nil {
		t.Fatal("output VC not freed after tail")
	}
}

func TestRouterRespectsDownstreamSpace(t *testing.T) {
	r, in, out := buildRouter(1, 2)
	pkt := mkPacket(1, 4)
	inVC := in.VCs[0]
	inVC.Owner = pkt
	inVC.Stage(message.Flit{Pkt: pkt, Idx: 0})
	inVC.Stage(message.Flit{Pkt: pkt, Idx: 1})
	in.Commit(0)
	// Never drain the output: only 2 flits can ever move.
	for cycle := int64(1); cycle < 10; cycle++ {
		r.Step(cycle)
		in.Commit(cycle)
		out.Commit(cycle)
	}
	if out.VCs[0].Len() != 2 {
		t.Fatalf("output holds %d flits, want 2 (buffer cap)", out.VCs[0].Len())
	}
	if in.VCs[0].Len() != 0 {
		t.Fatalf("input should have forwarded its 2 flits")
	}
}

func TestRouterVCAllocationExclusive(t *testing.T) {
	// Two input VCs both want output VC 0; only one may own it.
	r := New(0, stubPolicy{cands: []routing.PortVC{{Port: 0, VC: 0}}}, 1, 1)
	in := NewChannel(KindLink, 1, 0, 0, 0, 0, 2, 2)
	out := NewChannel(KindLink, 0, 1, 0, 0, 1, 2, 2)
	r.Inputs[0] = in
	r.Outputs[0] = out
	a, b := mkPacket(1, 2), mkPacket(2, 2)
	fill(in.VCs[0], a, 1, 0)
	fill(in.VCs[1], b, 1, 0)
	r.Step(1)
	owners := 0
	if out.VCs[0].Owner == a || out.VCs[0].Owner == b {
		owners = 1
	}
	if owners != 1 {
		t.Fatal("output VC not allocated")
	}
	if in.VCs[0].Route != nil && in.VCs[1].Route != nil {
		t.Fatal("both inputs allocated the same output VC")
	}
}

func TestRouterOnePerPhysicalChannel(t *testing.T) {
	// Two input VCs routed to two different output VCs on the SAME output
	// channel: only one flit may cross per cycle.
	r := New(0, stubPolicy{cands: []routing.PortVC{{Port: 0, VC: 0}, {Port: 0, VC: 1}}}, 1, 1)
	in := NewChannel(KindLink, 1, 0, 0, 0, 0, 2, 2)
	out := NewChannel(KindLink, 0, 1, 0, 0, 1, 2, 2)
	r.Inputs[0] = in
	r.Outputs[0] = out
	a, b := mkPacket(1, 2), mkPacket(2, 2)
	fill(in.VCs[0], a, 2, 0)
	fill(in.VCs[1], b, 2, 0)
	r.Step(1)
	out.Commit(1)
	moved := out.VCs[0].Len() + out.VCs[1].Len()
	if moved != 1 {
		t.Fatalf("%d flits crossed one physical channel in one cycle", moved)
	}
}

func TestBlockedPackets(t *testing.T) {
	r, in, _ := buildRouter(1, 2)
	pkt := mkPacket(1, 2)
	pkt.SentFlits = 2
	fill(in.VCs[0], pkt, 2, 0)
	// Block the output by claiming its only VC.
	blocker := mkPacket(9, 2)
	r.Outputs[0].VCs[0].Owner = blocker
	for cycle := int64(1); cycle < 30; cycle++ {
		r.Step(cycle)
	}
	blocked := r.BlockedPackets(30, 25)
	if len(blocked) != 1 || blocked[0] != pkt {
		t.Fatalf("blocked = %v", blocked)
	}
	if got := r.BlockedPackets(30, 100); len(got) != 0 {
		t.Fatal("threshold not respected")
	}
}

func TestChannelOccupied(t *testing.T) {
	ch := NewChannel(KindInject, 0, 0, 0, 0, 0, 2, 2)
	if ch.Occupied() != 0 {
		t.Fatal("fresh channel occupied")
	}
	pkt := mkPacket(1, 3)
	fill(ch.VCs[0], pkt, 2, 0)
	fill(ch.VCs[1], mkPacket(2, 2), 1, 0)
	if ch.Occupied() != 3 {
		t.Fatalf("occupied = %d, want 3", ch.Occupied())
	}
}

func TestChannelKindStrings(t *testing.T) {
	if KindLink.String() != "link" || KindInject.String() != "inject" || KindEject.String() != "eject" {
		t.Fatal("kind strings wrong")
	}
}

// TestWindowAtTheLimits drives one worm of MaxPacketFlits flits through a VC
// MaxFlitBuf deep: the whole worm fits, the full buffer refuses one more
// flit, and the window's 16-bit front walks to one past the tail, which
// releases the VC.
func TestWindowAtTheLimits(t *testing.T) {
	ch := NewChannel(KindLink, 0, 1, 0, 0, 0, 1, MaxFlitBuf)
	vc := ch.VCs[0]
	pkt := mkPacket(1, MaxPacketFlits)
	fill(vc, pkt, MaxPacketFlits, 0)
	if vc.Len() != MaxPacketFlits || vc.SpaceFor() != (MaxPacketFlits < MaxFlitBuf) {
		t.Fatalf("holds %d flits, space %v, after staging the whole worm", vc.Len(), vc.SpaceFor())
	}
	for i := range MaxPacketFlits {
		if f := vc.Dequeue(1); f.Pkt != pkt || f.Idx != i {
			t.Fatalf("dequeue %d returned flit %d of %v", i, f.Idx, f.Pkt)
		}
	}
	if vc.Owner != nil || vc.Len() != 0 || ch.OccMask() != 0 {
		t.Fatalf("after the tail: owner %v, %d flits, occupancy %#x", vc.Owner, vc.Len(), ch.OccMask())
	}
}
