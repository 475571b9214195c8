package traffic

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/message"
	"repro/internal/netiface"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// refSynthetic is the source as it was while every endpoint was asked once
// per cycle: one separately allocated stream per endpoint, one Bernoulli draw
// per endpoint per cycle. Generate is that method kept verbatim; everything
// else (counters, the outstanding table, NewTransaction) is the embedded
// Synthetic's, whose draw-ahead state it never touches.
type refSynthetic struct {
	*Synthetic
	rngs []*sim.RNG
}

func newRefSynthetic(rate float64, endpoints int, engine *protocol.Engine, table *protocol.Table, rng *sim.RNG) *refSynthetic {
	s := &refSynthetic{Synthetic: &Synthetic{Rate: rate, Endpoints: endpoints, Engine: engine, Table: table}}
	s.rngs = make([]*sim.RNG, endpoints)
	for i := range s.rngs {
		s.rngs[i] = rng.Split()
	}
	s.outstanding = make([]int, endpoints)
	return s
}

func (s *refSynthetic) Generate(now int64, endpoint int, ni *netiface.NI) {
	rng := s.rngs[endpoint]
	if !rng.Bernoulli(s.Rate) {
		return
	}
	if s.MaxOutstanding > 0 && s.outstanding[endpoint] >= s.MaxOutstanding {
		s.Throttled++
		return
	}
	txn := s.NewTransaction(endpoint, rng, now)
	ni.EnqueueSource(s.Engine.FirstMessage(txn, now))
	s.outstanding[endpoint]++
	s.Generated++
}

// sourceRig is one source with its own engine, table and NIs, so that two of
// them can be driven side by side and compared by what they create.
type sourceRig struct {
	eng   *protocol.Engine
	table *protocol.Table
	nis   []*netiface.NI
	seen  message.TxnID // the last transaction ID already logged
	log   []string
}

func newSourceRig(endpoints int) *sourceRig {
	eng, err := protocol.NewEngine(protocol.PAT280, protocol.DefaultLengths)
	if err != nil {
		panic(err)
	}
	r := &sourceRig{eng: eng, table: protocol.NewTable(), nis: make([]*netiface.NI, endpoints), seen: eng.NextTxnID()}
	for ep := range r.nis {
		r.nis[ep] = testNIquiet(eng, r.table)
	}
	return r
}

// note logs the transactions created since the last call as arrivals of cycle
// now: (cycle, endpoint, template, home, thirds), in creation order.
func (r *sourceRig) note(now int64) {
	for r.seen < r.eng.NextTxnID() { // the engine's last assigned ID
		r.seen++
		txn := r.table.Get(r.seen)
		r.log = append(r.log, fmt.Sprintf("%d: ep%d %s home %d thirds %v", now, txn.Requester, txn.Tmpl.Name, txn.Home, txn.Thirds))
	}
}

// TestDrawAheadMatchesPerCycle holds the draw-ahead source to the per-cycle
// one it replaced: the same arrivals at the same cycles and endpoints with
// the same template, home and third parties, and the same Generated and
// Throttled counts — at rates from never to every cycle, with one MSHR per
// endpoint so throttling decides which arrivals roll a transaction, and with
// the draw-ahead side rewound twice along the way through its Checkpoint
// method: once while some endpoint holds a
// success it has drawn but not yet reached, once while none does.
func TestDrawAheadMatchesPerCycle(t *testing.T) {
	const endpoints, cycles, detour = 4, 6000, 700
	sawPendingHit, sawOnlyMisses := false, false
	for _, rate := range []float64{0, 1e-9, 0.001, 0.012, 0.5, 1} {
		ref, got := newSourceRig(endpoints), newSourceRig(endpoints)
		rs := newRefSynthetic(rate, endpoints, ref.eng, ref.table, sim.NewRNG(99))
		gs := NewSynthetic(rate, endpoints, got.eng, got.table, sim.NewRNG(99))
		rs.MaxOutstanding, gs.MaxOutstanding = 1, 1

		// complete frees one endpoint's MSHR every few cycles, on a schedule
		// that depends on the cycle alone so a rewound source sees it again.
		complete := func(s interface{ TxnCompleted(int) }, now int64) {
			if now%5 == 0 {
				s.TxnCompleted(int(now/5) % endpoints)
			}
		}
		stepGot := func(now int64) {
			gs.Generate(now, got.nis)
			got.note(now)
			complete(gs, now)
		}
		pendingHit := func() bool { return slices.Contains(gs.hit, true) }

		rewound := map[bool]bool{} // keyed by whether a hit was pending at the capture
		for now := int64(0); now < cycles; now++ {
			for ep, ni := range ref.nis {
				rs.Generate(now, ep, ni)
			}
			ref.note(now)
			complete(rs, now)

			// Capture before this cycle, wander off, come back. A look-ahead
			// that was not part of the state would replay different arrivals.
			if p := pendingHit(); now >= 100 && now < cycles-detour && !rewound[p] {
				rewound[p] = true
				st := ckpt.NewWriter(0, 0)
				gs.Checkpoint(st)
				mark, generated := len(got.log), gs.Generated
				for d := now; d < now+detour; d++ {
					stepGot(d)
				}
				if rate >= 0.012 && gs.Generated == generated {
					t.Fatalf("rate %v: the detour after cycle %d generated nothing", rate, now)
				}
				back := ckpt.NewReader(st.Words())
				gs.Checkpoint(back)
				back.Done()
				got.log = got.log[:mark]
			}
			stepGot(now)
		}

		if !slices.Equal(ref.log, got.log) {
			for i := range ref.log {
				if i >= len(got.log) || ref.log[i] != got.log[i] {
					t.Fatalf("rate %v: arrival %d: per-cycle %q, draw-ahead %q", rate, i, ref.log[i], append(got.log, "nothing")[i])
				}
			}
			t.Fatalf("rate %v: draw-ahead created %d transactions, per-cycle %d", rate, len(got.log), len(ref.log))
		}
		if rs.Generated != gs.Generated || rs.Throttled != gs.Throttled {
			t.Fatalf("rate %v: generated/throttled %d/%d per cycle, %d/%d drawn ahead", rate, rs.Generated, rs.Throttled, gs.Generated, gs.Throttled)
		}
		for ep := 0; ep < endpoints; ep++ {
			if rs.Outstanding(ep) != gs.Outstanding(ep) {
				t.Fatalf("rate %v endpoint %d: outstanding %d per cycle, %d drawn ahead", rate, ep, rs.Outstanding(ep), gs.Outstanding(ep))
			}
			// Bernoulli draws nothing at rates 0 and 1, and neither may the
			// look-ahead: the streams then hold the transactions' draws only.
			if (rate == 0 || rate == 1) && *rs.rngs[ep] != gs.rngs[ep] {
				t.Fatalf("rate %v endpoint %d: the look-ahead drew from a stream Bernoulli leaves alone", rate, ep)
			}
		}
		if (len(ref.log) > 0) != (rate >= 0.001) || (rate >= 0.012 && rs.Throttled == 0) {
			t.Fatalf("rate %v: %d arrivals, %d throttled: the comparison is vacuous", rate, len(ref.log), rs.Throttled)
		}
		t.Logf("rate %v: %d transactions, %d throttled, rewound with a hit pending: %v, with only misses known: %v",
			rate, gs.Generated, gs.Throttled, rewound[true], rewound[false])
		sawPendingHit = sawPendingHit || rewound[true]
		sawOnlyMisses = sawOnlyMisses || rewound[false]
	}
	if !sawPendingHit || !sawOnlyMisses {
		t.Fatalf("rewinds with a hit pending: %v, with only misses known: %v; want both", sawPendingHit, sawOnlyMisses)
	}
}

// TestGenerateGapPanics: arrivals are drawn ahead for particular cycles, so a
// caller that skips one would silently lose whatever was due then. The first
// call may name any cycle; every later one must follow its predecessor.
func TestGenerateGapPanics(t *testing.T) {
	s, nis := newSynthetic(t, 0.01)
	s.Generate(40, nis)
	s.Generate(41, nis)
	for _, now := range []int64{43, 41, 0} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Generate(%d) after cycle 41 did not panic", now)
				}
			}()
			s.Generate(now, nis)
		}()
	}
	s.Generate(42, nis) // the refused calls changed nothing
}
