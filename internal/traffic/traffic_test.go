package traffic

import (
	"math"
	"slices"
	"testing"

	"repro/internal/message"
	"repro/internal/netiface"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/sim"
)

func testNI(t *testing.T, eng *protocol.Engine, table *protocol.Table, ep int) *netiface.NI {
	t.Helper()
	var pktID message.PacketID
	ni := netiface.New(netiface.Config{
		Endpoint:        ep,
		Queues:          1,
		QueueIndex:      func(message.Type, bool) int { return 0 },
		QueueCap:        16,
		ServiceTime:     40,
		DetectThreshold: 25,
		InjectVCs:       func(*message.Message) []int { return []int{0} },
		Engine:          eng,
		Table:           table,
		NextPacketID:    func() message.PacketID { pktID++; return pktID },
	})
	ni.Inject = router.NewChannel(router.KindInject, 0, 0, 0, 0, 0, 1, 2)
	ni.Eject = router.NewChannel(router.KindEject, 0, 0, 0, 0, 1, 1, 2)
	return ni
}

// newSynthetic builds a 16-endpoint source and one NI per endpoint.
func newSynthetic(t *testing.T, rate float64) (*Synthetic, []*netiface.NI) {
	t.Helper()
	eng, err := protocol.NewEngine(protocol.PAT271, protocol.DefaultLengths)
	if err != nil {
		t.Fatal(err)
	}
	table := protocol.NewTable()
	s := NewSynthetic(rate, 16, eng, table, sim.NewRNG(7))
	nis := make([]*netiface.NI, s.Endpoints)
	for ep := range nis {
		nis[ep] = testNI(t, eng, table, ep)
	}
	return s, nis
}

func TestGenerationRate(t *testing.T) {
	s, nis := newSynthetic(t, 0.1)
	const cycles = 20000
	for now := int64(0); now < cycles; now++ {
		s.Generate(now, nis)
	}
	got := float64(s.Generated) / (cycles * float64(len(nis)))
	if math.Abs(got-0.1) > 0.01 {
		t.Fatalf("generation rate = %v, want ~0.1", got)
	}
	for ep, ni := range nis {
		if got := float64(ni.SourceBacklog()) / cycles; math.Abs(got-0.1) > 0.02 {
			t.Fatalf("endpoint %d generation rate = %v, want ~0.1", ep, got)
		}
	}
}

func TestParticipantsDistinct(t *testing.T) {
	s, _ := newSynthetic(t, 1)
	rng := sim.NewRNG(3)
	for i := 0; i < 500; i++ {
		txn := s.NewTransaction(5, rng, 0)
		if txn.Home == 5 {
			t.Fatal("home equals requester")
		}
		for _, third := range txn.Thirds {
			if third == txn.Home {
				t.Fatal("third equals home")
			}
		}
	}
}

func TestTemplateMixMatchesWeights(t *testing.T) {
	s, _ := newSynthetic(t, 1)
	rng := sim.NewRNG(9)
	counts := map[string]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		txn := s.NewTransaction(0, rng, 0)
		counts[txn.Tmpl.Name]++
	}
	// PAT271: 20/70/10.
	if math.Abs(float64(counts["chain2"])/n-0.2) > 0.02 ||
		math.Abs(float64(counts["chain3-s1"])/n-0.7) > 0.02 ||
		math.Abs(float64(counts["chain4-s1"])/n-0.1) > 0.02 {
		t.Fatalf("template mix = %v", counts)
	}
}

func TestOutstandingLimitThrottles(t *testing.T) {
	s, nis := newSynthetic(t, 1) // every endpoint generates every cycle
	s.MaxOutstanding = 4
	for now := int64(0); now < 100; now++ {
		s.Generate(now, nis)
	}
	if want := int64(4 * len(nis)); s.Generated != want {
		t.Fatalf("generated %d, want %d (limit)", s.Generated, want)
	}
	if want := int64(96 * len(nis)); s.Throttled != want {
		t.Fatalf("throttled %d, want %d", s.Throttled, want)
	}
	if s.Outstanding(2) != 4 || nis[2].SourceBacklog() != 4 {
		t.Fatalf("outstanding = %d, backlog = %d", s.Outstanding(2), nis[2].SourceBacklog())
	}
	// Completion frees a slot, at that endpoint only.
	s.TxnCompleted(2)
	s.Generate(100, nis)
	if s.Generated != int64(4*len(nis))+1 || nis[2].SourceBacklog() != 5 {
		t.Fatal("completion did not free an MSHR")
	}
}

func TestTxnCompletedUnderflowSafe(t *testing.T) {
	s, _ := newSynthetic(t, 1)
	s.TxnCompleted(0) // must not go negative / panic
	if s.Outstanding(0) != 0 {
		t.Fatal("outstanding went negative")
	}
}

func TestSyntheticAlwaysActive(t *testing.T) {
	s, _ := newSynthetic(t, 0.5)
	if !s.Active(0) || !s.Active(1e9) {
		t.Fatal("synthetic source must always be active")
	}
}

func TestPerEndpointStreamsIndependent(t *testing.T) {
	// What arrives at endpoint k must not depend on what the other endpoints
	// draw from their streams: in one run their transactions complete at
	// once, so they keep rolling new ones; in the other they never complete,
	// so after the first they are throttled and roll nothing.
	arrivals := func(othersComplete bool) []int64 {
		eng, _ := protocol.NewEngine(protocol.PAT100, protocol.DefaultLengths)
		table := protocol.NewTable()
		s := NewSynthetic(0.5, 4, eng, table, sim.NewRNG(11))
		s.MaxOutstanding = 1
		nis := make([]*netiface.NI, 4)
		for ep := range nis {
			nis[ep] = testNIquiet(eng, table)
		}
		var at []int64
		for now := int64(0); now < 200; now++ {
			before := nis[3].SourceBacklog()
			s.Generate(now, nis)
			if nis[3].SourceBacklog() != before {
				at = append(at, now)
			}
			s.TxnCompleted(3)
			for ep := 0; othersComplete && ep < 3; ep++ {
				s.TxnCompleted(ep)
			}
		}
		if othersComplete == (s.Throttled > 0) {
			t.Fatalf("othersComplete=%v but throttled %d", othersComplete, s.Throttled)
		}
		return at
	}
	busy, quiet := arrivals(true), arrivals(false)
	if len(busy) == 0 {
		t.Fatal("nothing generated")
	}
	if !slices.Equal(busy, quiet) {
		t.Fatalf("endpoint 3 stream depends on other endpoints:\n%v\n%v", busy, quiet)
	}
}

func testNIquiet(eng *protocol.Engine, table *protocol.Table) *netiface.NI {
	var pktID message.PacketID
	ni := netiface.New(netiface.Config{
		Endpoint: 0, Queues: 1,
		QueueIndex:      func(message.Type, bool) int { return 0 },
		QueueCap:        1 << 20,
		ServiceTime:     1,
		DetectThreshold: 1 << 20,
		InjectVCs:       func(*message.Message) []int { return nil },
		Engine:          eng, Table: table,
		NextPacketID: func() message.PacketID { pktID++; return pktID },
	})
	return ni
}
