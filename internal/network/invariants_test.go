package network

import (
	"testing"

	"repro/internal/message"
	"repro/internal/protocol"
	"repro/internal/schemes"
	"repro/internal/sim"
)

// checkInvariants walks the whole fabric and verifies structural wormhole
// invariants that must hold at every cycle boundary.
func checkInvariants(t *testing.T, n *Network, now int64) {
	t.Helper()
	for _, ch := range n.Channels {
		for _, vc := range ch.VCs {
			// An occupied VC belongs to exactly the packet whose flits it
			// buffers.
			if f, ok := vc.Front(); ok {
				if vc.Owner == nil {
					t.Fatalf("cycle %d: %v holds flits without an owner", now, vc)
				}
				if f.Pkt != vc.Owner {
					t.Fatalf("cycle %d: %v front flit of %d but owned by %d", now, vc, f.Pkt.ID, vc.Owner.ID)
				}
			}
			// A routed input VC's target must be owned by the same packet.
			if vc.Route != nil && vc.Route.Owner != vc.Owner && vc.Route.Owner != nil && vc.Owner != nil {
				t.Fatalf("cycle %d: %v routed to %v with mismatched owners", now, vc, vc.Route)
			}
		}
	}
}

// quiescentByScan is Quiescent with every buffer counted flit by flit instead
// of read from the channels' occupancy words, and no test skipped.
func quiescentByScan(n *Network) bool {
	flits := 0
	for _, ch := range n.Channels {
		flits += ch.Occupied()
	}
	idle := flits == 0 && n.Table.Len() == 0 && (n.Rescue == nil || !n.Rescue.Active())
	for _, ni := range n.NIs {
		idle = idle && ni.Quiescent()
	}
	return idle
}

// TestQuiescentSeesBufferedFlits: a flit buffered while the transaction
// table is empty keeps the network from being quiescent. No run in this
// package reaches that state, so this forges it: without the read of the
// occupancy words Quiescent would pass it.
func TestQuiescentSeesBufferedFlits(t *testing.T) {
	n := mustNet(t, smallConfig(schemes.PR, protocol.PAT271, 4, 0.01))
	if !n.Quiescent() || !quiescentByScan(n) {
		t.Fatal("a fresh network is not quiescent")
	}
	vc := n.Channels[len(n.Channels)/2].VCs[1]
	vc.Owner = n.Pool.NewPacket(1, n.Pool.NewMessage(0, message.M1, 0, 0, 1, 1, 0))
	vc.Stage(message.Flit{Pkt: vc.Owner})
	vc.Ch.Commit(0)
	if n.Table.Len() != 0 || n.Quiescent() || quiescentByScan(n) {
		t.Fatalf("%v buffers a flit, the table holds %d transactions: Quiescent() = %v", vc, n.Table.Len(), n.Quiescent())
	}
	vc.Dequeue(1)
	if !n.Quiescent() {
		t.Fatalf("%v drained, still not quiescent", vc)
	}
}

func TestWormholeInvariantsUnderLoad(t *testing.T) {
	for _, kind := range []schemes.Kind{schemes.SA, schemes.DR, schemes.PR} {
		pat := protocol.PAT271
		vcs := 8
		if kind == schemes.SA {
			vcs = 8
		}
		cfg := smallConfig(kind, pat, vcs, 0.01)
		cfg.Measure = 2000
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Run as RunContext does, to the end of the drain, holding Quiescent
		// to a full buffer scan at every cycle boundary on the way.
		for i := int64(0); !n.Clock.Done(); i++ {
			n.Step()
			if i%100 == 0 {
				checkInvariants(t, n, i)
			}
			q := n.Quiescent()
			if q != quiescentByScan(n) {
				t.Fatalf("%v cycle %d: Quiescent() = %v, a full buffer scan says %v", kind, i, q, !q)
			}
			if q && n.Clock.Phase() == sim.PhaseDrain {
				break
			}
		}
		if !n.Quiescent() {
			t.Fatalf("%v: never drained, so Quiescent() was never seen true", kind)
		}
	}
}

// TestVCPartitionIsolation: under SA, a virtual channel assigned to one
// message type must never carry another type's flits.
func TestVCPartitionIsolation(t *testing.T) {
	cfg := smallConfig(schemes.SA, protocol.PAT721, 8, 0.015)
	cfg.Measure = 3000
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Build VC index -> partition map.
	partOf := map[int]int{}
	for pi, part := range n.Scheme.Partitions() {
		for _, vc := range part {
			partOf[vc] = pi
		}
	}
	typePart := map[message.Type]int{}
	for i, typ := range n.Scheme.UsedTypes() {
		typePart[typ] = i
	}
	violations := 0
	n.OnCycle = func(now int64) {
		if now%50 != 0 {
			return
		}
		for _, ch := range n.Channels {
			for _, vc := range ch.VCs {
				f, ok := vc.Front()
				if !ok {
					continue
				}
				if partOf[int(vc.Index)] != typePart[f.Pkt.Msg.Type] {
					violations++
				}
			}
		}
	}
	n.Run()
	if violations > 0 {
		t.Fatalf("%d partition violations under SA", violations)
	}
	if n.Stats.DeliveredMsgs == 0 {
		t.Fatal("nothing delivered")
	}
}

// TestDRClassIsolation: under DR, request-class flits stay on the request
// partition and reply-class (including backoff) flits on the reply
// partition.
func TestDRClassIsolation(t *testing.T) {
	cfg := smallConfig(schemes.DR, protocol.PAT271, 8, 0.015)
	cfg.Measure = 3000
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reqVCs := map[int]bool{}
	for _, vc := range n.Scheme.Partitions()[0] {
		reqVCs[vc] = true
	}
	violations := 0
	n.OnCycle = func(now int64) {
		if now%50 != 0 {
			return
		}
		for _, ch := range n.Channels {
			for _, vc := range ch.VCs {
				f, ok := vc.Front()
				if !ok {
					continue
				}
				m := f.Pkt.Msg
				wantReq := !m.Backoff && n.Engine.ClassOf(m) == message.ClassRequest
				if reqVCs[int(vc.Index)] != wantReq {
					violations++
				}
			}
		}
	}
	n.Run()
	if violations > 0 {
		t.Fatalf("%d class isolation violations under DR", violations)
	}
}

// TestFlitConservation: every injected flit is eventually delivered (after
// drain, none remain buffered), and delivered flit counts match message
// lengths.
func TestFlitConservation(t *testing.T) {
	cfg := smallConfig(schemes.PR, protocol.PAT721, 4, 0.008)
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Run()
	if !n.Quiescent() {
		t.Fatal("not quiescent")
	}
	inFlight := 0
	for _, ch := range n.Channels {
		inFlight += ch.Occupied()
	}
	if inFlight != 0 {
		t.Fatalf("%d flits still buffered after drain", inFlight)
	}
}

// TestDeflectionsProduceExtraMessages: under DR at saturation, backoff
// replies add messages; the per-transaction message count must exceed the
// pattern's no-deadlock average.
func TestDeflectionsProduceExtraMessages(t *testing.T) {
	cfg := smallConfig(schemes.DR, protocol.PAT271, 4, 0.02)
	cfg.Measure = 6000
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Run()
	if n.Stats.Deflections == 0 {
		t.Skip("no deflections at this seed/load")
	}
	if n.Stats.BackoffDelivered == 0 {
		t.Fatal("deflections occurred but no backoff replies were delivered")
	}
}

// TestRouterTimeoutConfigurable: with an enormous router timeout and
// endpoint threshold, PR takes no recovery actions at moderate load.
func TestRouterTimeoutConfigurable(t *testing.T) {
	cfg := smallConfig(schemes.PR, protocol.PAT271, 8, 0.008)
	cfg.RouterTimeout = 1 << 30
	cfg.DetectThreshold = 1 << 30
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Run()
	if n.Stats.Rescues != 0 {
		t.Fatalf("rescues with disabled detection: %d", n.Stats.Rescues)
	}
	if n.Stats.DeliveredMsgs == 0 {
		t.Fatal("nothing delivered")
	}
}

// TestSelfAddressedMessages: transactions whose home equals a third party
// or whose messages loop back to their source router must still complete
// (loopback through injection->ejection).
func TestSelfAddressedMessages(t *testing.T) {
	// 2-endpoint network forces heavy participant collisions.
	cfg := smallConfig(schemes.PR, protocol.PAT271, 4, 0.01)
	cfg.Radix = []int{2, 2}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Run()
	if n.Stats.TxnCompleted == 0 || !n.Quiescent() {
		t.Fatalf("tiny network failed: txns=%d quiescent=%v", n.Stats.TxnCompleted, n.Quiescent())
	}
}

// TestInjectionBandwidthOnePerCycle: at most one flit enters the network
// per NI per cycle.
func TestInjectionBandwidthOnePerCycle(t *testing.T) {
	cfg := smallConfig(schemes.PR, protocol.PAT100, 4, 0.05)
	cfg.Measure = 1500
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One flit per injection channel per cycle means total injected flits
	// cannot exceed cycles * nodes over the measurement window.
	n.Run()
	maxFlits := cfg.Measure * int64(n.Torus.Endpoints())
	if n.Stats.InjectedFlits > maxFlits {
		t.Fatalf("injected %d flits > bandwidth bound %d", n.Stats.InjectedFlits, maxFlits)
	}
}

// TestThroughputNeverExceedsBisection: delivered throughput must respect
// the 8x8 torus uniform-random bisection bound (~1 flit/node/cycle loose
// upper bound; the practical ceiling is lower).
func TestThroughputNeverExceedsBisection(t *testing.T) {
	cfg := smallConfig(schemes.PR, protocol.PAT100, 16, 0.08)
	cfg.Measure = 2000
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Run()
	if thr := n.Stats.Throughput(); thr > 1.0 {
		t.Fatalf("impossible throughput %.3f", thr)
	}
}
