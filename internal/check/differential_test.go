package check_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/check"
	"repro/internal/message"
	"repro/internal/netiface"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// delivered-message multiset key: everything that identifies a protocol
// step's delivery, excluding timing.
type delivID struct {
	txn           message.TxnID
	hop, branch   int
	typ           message.Type
	backoff, nack bool
	src, dst      int
	flits         int
}

// collectDeliveries wraps the NI delivery hooks with a multiset recorder.
// Call before stepping.
func collectDeliveries(n *network.Network) map[delivID]int {
	got := map[delivID]int{}
	for _, ni := range n.NIs {
		h := &ni.Cfg.Hooks
		prev := h.Delivered
		h.Delivered = func(m *message.Message, now int64) {
			got[delivID{m.Txn, m.Hop, m.Branch, m.Type, m.Backoff, m.Nack, m.Src, m.Dst, m.Flits}]++
			if prev != nil {
				prev(m, now)
			}
		}
	}
	return got
}

// TestDifferentialSchemesDeliverSameMultiset: at a load low enough that no
// recovery action fires, the deadlock-handling scheme must be behaviourally
// invisible — strict avoidance, deflective recovery, and progressive
// recovery runs of the same seed deliver the same multiset of messages.
// MaxOutstanding is lifted so the generation stream cannot couple to
// scheme-dependent completion timing.
func TestDifferentialSchemesDeliverSameMultiset(t *testing.T) {
	run := func(kind schemes.Kind) (map[delivID]int, *network.Network) {
		cfg := smallCfg(kind, protocol.PAT271, 8, 0.0015)
		cfg.MaxOutstanding = 0
		cfg.Measure = 2000
		n := mustNet(t, cfg)
		got := collectDeliveries(n)
		c := check.Attach(n, check.Options{Interval: 64})
		n.Run()
		if err := c.Err(); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if !n.Quiescent() {
			t.Fatalf("%v: not quiescent after drain", kind)
		}
		if n.Stats.Deflections != 0 || n.Stats.Rescues != 0 {
			t.Fatalf("%v: recovery actions at differential load (deflections=%d rescues=%d); lower the rate",
				kind, n.Stats.Deflections, n.Stats.Rescues)
		}
		return got, n
	}
	base, bn := run(schemes.SA)
	if bn.Stats.DeliveredMsgs == 0 {
		t.Fatal("differential load delivered nothing")
	}
	for _, kind := range []schemes.Kind{schemes.DR, schemes.PR} {
		got, _ := run(kind)
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("SA and %v delivered different multisets: %d vs %d distinct keys", kind, len(base), len(got))
		}
	}
}

// TestCheckerIsObservationallyInvisible: a checked run and an unchecked run
// of the same configuration must produce identical statistics and an
// identical delivery digest — the checker may only read.
func TestCheckerIsObservationallyInvisible(t *testing.T) {
	cfg := smallCfg(schemes.PR, protocol.PAT271, 4, 0.02)
	run := func(withChecker bool) (*network.Network, *check.Digest) {
		n := mustNet(t, cfg)
		d := check.AttachDigest(n)
		if withChecker {
			c := check.Attach(n, check.Options{Interval: 32})
			defer func() {
				if err := c.Err(); err != nil {
					t.Fatal(err)
				}
			}()
		}
		n.Run()
		return n, d
	}
	nOn, dOn := run(true)
	nOff, dOff := run(false)
	if dOn.Sum() != dOff.Sum() || dOn.Count() != dOff.Count() {
		t.Fatalf("digest differs with checker on: %v (%d) vs %v (%d)", dOn, dOn.Count(), dOff, dOff.Count())
	}
	if !reflect.DeepEqual(nOn.Stats, nOff.Stats) {
		t.Fatalf("statistics differ with checker on:\n%+v\nvs\n%+v", nOn.Stats, nOff.Stats)
	}
}

// TestMetamorphicSeedVariation: conformance must not depend on the RNG
// stream — every seed sustains the invariants and drains.
func TestMetamorphicSeedVariation(t *testing.T) {
	for _, seed := range []uint64{2, 3, 7} {
		cfg := smallCfg(schemes.PR, protocol.PAT271, 4, 0.015)
		cfg.Seed = seed
		cfg.Measure = 1500
		n := mustNet(t, cfg)
		c := check.Attach(n, check.Options{Interval: 32})
		n.Run()
		if err := c.Err(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !n.Quiescent() {
			t.Fatalf("seed %d: not quiescent", seed)
		}
		if n.Stats.DeliveredMsgs == 0 {
			t.Fatalf("seed %d: nothing delivered", seed)
		}
	}
}

// scriptEvent is one scripted transaction: issue cycle, template selector,
// and participants.
type scriptEvent struct {
	cycle     int64
	u         float64
	req, home int
	thirds    []int
}

// scriptedSource replays a fixed transaction schedule, recording which
// transaction ID each event produced so runs can be compared message by
// message even when IDs permute.
type scriptedSource struct {
	eng      *protocol.Engine
	tab      *protocol.Table
	events   []scriptEvent
	txnEvent map[message.TxnID]int
}

func (s *scriptedSource) Generate(now int64, nis []*netiface.NI) {
	for i := range s.events {
		e := &s.events[i]
		if e.cycle != now {
			continue
		}
		txn := s.eng.NewTransaction(s.eng.PickTemplate(e.u), e.req, e.home, e.thirds, now)
		s.tab.Add(txn)
		s.txnEvent[txn.ID] = i
		nis[e.req].EnqueueSource(s.eng.FirstMessage(txn, now))
	}
}

func (s *scriptedSource) TxnCompleted(int) {}

func (s *scriptedSource) Active(int64) bool { return true }

var _ traffic.Source = (*scriptedSource)(nil)

// TestMetamorphicNodeRelabeling exploits torus symmetry: translating every
// participant of a scripted workload by a fixed coordinate offset must
// relabel the run without changing any delivery time — same messages, same
// cycles, at translated endpoints. Progressive recovery's fully adaptive
// routing has no dateline asymmetry, and the schedule is light enough that
// no translation-variant machinery (the token ring anchor) engages.
func TestMetamorphicNodeRelabeling(t *testing.T) {
	tor := topology.MustTorus([]int{4, 4}, 1)
	translate := func(ep int, dx, dy int) int {
		e := tor.EndpointByID(ep)
		c := tor.Coords(e.Router)
		c[0] += dx
		c[1] += dy
		return tor.EndpointID(topology.Endpoint{Router: tor.Node(c), Local: e.Local})
	}

	base := []scriptEvent{
		{5, 0.1, 0, 5, []int{9}},
		{20, 0.5, 3, 14, []int{7}},
		{38, 0.9, 10, 2, []int{6}},
		{57, 0.3, 12, 1, []int{15}},
		{80, 0.7, 6, 11, []int{0}},
		{104, 0.1, 9, 4, []int{13}},
		{131, 0.5, 15, 8, []int{2}},
		{150, 0.9, 1, 10, []int{5}},
		{177, 0.3, 7, 13, []int{3}},
		{201, 0.7, 4, 6, []int{12}},
	}
	shifted := make([]scriptEvent, len(base))
	for i, e := range base {
		s := e
		s.req = translate(e.req, 1, 2)
		s.home = translate(e.home, 1, 2)
		s.thirds = make([]int, len(e.thirds))
		for j, th := range e.thirds {
			s.thirds[j] = translate(th, 1, 2)
		}
		shifted[i] = s
	}

	type msgKey struct {
		event, hop, branch int
		typ                message.Type
	}
	run := func(events []scriptEvent) map[msgKey]int64 {
		cfg := network.DefaultConfig()
		cfg.Radix = []int{4, 4}
		cfg.Scheme = schemes.PR
		cfg.Pattern = protocol.PAT271
		cfg.VCs = 4
		cfg.Warmup = 10
		cfg.Measure = 400
		cfg.MaxDrain = 4000
		var src *scriptedSource
		n, err := network.NewWithSource(cfg, func(e *protocol.Engine, tb *protocol.Table, _ *sim.RNG, _ int) traffic.Source {
			src = &scriptedSource{eng: e, tab: tb, events: events, txnEvent: map[message.TxnID]int{}}
			return src
		})
		if err != nil {
			t.Fatal(err)
		}
		got := map[msgKey]int64{}
		for _, ni := range n.NIs {
			h := &ni.Cfg.Hooks
			prev := h.Delivered
			h.Delivered = func(m *message.Message, now int64) {
				ev, ok := src.txnEvent[m.Txn]
				if !ok {
					t.Errorf("delivery for unscripted transaction %d", m.Txn)
				}
				got[msgKey{ev, m.Hop, m.Branch, m.Type}] = now
				if prev != nil {
					prev(m, now)
				}
			}
		}
		c := check.Attach(n, check.Options{Interval: 16})
		n.Run()
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
		if !n.Quiescent() {
			t.Fatal("scripted run did not drain")
		}
		if n.Stats.Rescues != 0 || n.Stats.Deflections != 0 {
			t.Fatal("scripted schedule triggered recovery; it must stay contention-free")
		}
		return got
	}

	a, b := run(base), run(shifted)
	if len(a) == 0 {
		t.Fatal("no deliveries recorded")
	}
	if !reflect.DeepEqual(a, b) {
		for k, cyc := range a {
			if b[k] != cyc {
				t.Errorf("event %d hop %d branch %d %v: base cycle %d, translated cycle %d",
					k.event, k.hop, k.branch, k.typ, cyc, b[k])
			}
		}
		t.Fatal(fmt.Sprintf("translation changed behaviour: %d vs %d recorded deliveries", len(a), len(b)))
	}
}
