package fault

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/message"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/schemes"
)

// smokeConfig is a short 8x8 PR run: big enough that every link carries
// traffic, short enough for CI.
func smokeConfig() network.Config {
	cfg := network.DefaultConfig()
	cfg.Warmup = 500
	cfg.Measure = 2500
	cfg.MaxDrain = 4000
	cfg.Rate = 0.008
	return cfg
}

func runToCompletion(t *testing.T, cfg network.Config, plan *Plan, withCheck bool) (*network.Network, *Injector, *check.Checker, *check.Digest) {
	t.Helper()
	n, err := network.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var checker *check.Checker
	if withCheck {
		checker = check.Attach(n, check.Options{})
	}
	var inj *Injector
	if plan != nil {
		inj, err = Attach(n, plan)
		if err != nil {
			t.Fatal(err)
		}
	}
	dig := check.AttachDigest(n)
	n.Run()
	if checker != nil {
		for _, v := range checker.Violations() {
			t.Errorf("invariant violation: %s", v.Format())
		}
	}
	return n, inj, checker, dig
}

func TestParsePlanRejectsUnknownFields(t *testing.T) {
	_, err := ParsePlan([]byte(`{"events":[{"kind":"link-down","at":10,"roouter":3}]}`))
	if err == nil {
		t.Fatal("typo field accepted")
	}
}

func TestParsePlanRoundTrip(t *testing.T) {
	p, err := ParsePlan([]byte(`{"seed":9,"events":[
		{"kind":"link-flaky","at":100,"until":200,"router":1,"dir":2,"rate":0.5,"drop":true},
		{"kind":"token-loss","at":50}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 9 || len(p.Events) != 2 || p.Events[0].Kind != LinkFlaky || !p.Events[0].Drop {
		t.Fatalf("parsed plan wrong: %+v", p)
	}
}

func TestValidateRejectsBadEvents(t *testing.T) {
	cases := []struct {
		name string
		ev   Event
	}{
		{"negative at", Event{Kind: TokenLoss, At: -1}},
		{"router out of range", Event{Kind: LinkDown, Router: 64}},
		{"dir out of range", Event{Kind: LinkDown, Dir: 4}},
		{"flaky rate zero", Event{Kind: LinkFlaky, Rate: 0}},
		{"flaky rate above one", Event{Kind: LinkFlaky, Rate: 1.5}},
		{"flaky empty window", Event{Kind: LinkFlaky, At: 100, Until: 100, Rate: 0.5}},
		{"freeze without cycles", Event{Kind: RouterFreeze, Router: 0}},
		{"stall endpoint range", Event{Kind: NIStall, Endpoint: 64, Cycles: 10}},
		{"credit negative vc", Event{Kind: CreditLoss, VC: -1}},
		{"unknown kind", Event{Kind: "meteor-strike"}},
	}
	for _, tc := range cases {
		p := &Plan{Events: []Event{tc.ev}}
		if err := p.Validate(64, 4, 64); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestAttachRejectsMissingLinkAndToken(t *testing.T) {
	cfg := smokeConfig()
	cfg.Mesh = true
	n, err := network.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The mesh edge router at (7,0) has no +x neighbour, so no such link.
	edge := int(n.Torus.Node([]int{7, 0}))
	if _, err := Attach(n, &Plan{Events: []Event{{Kind: LinkDown, Router: edge, Dir: 0}}}); err == nil {
		t.Error("mesh wrap link accepted")
	}

	cfg = smokeConfig()
	cfg.Scheme = schemes.SA // no token
	n, err = network.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Attach(n, &Plan{Events: []Event{{Kind: TokenLoss, At: 1}}}); err == nil {
		t.Error("token-loss accepted without a token")
	}

	cfg = smokeConfig()
	n, err = network.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Attach(n, &Plan{Events: []Event{{Kind: CreditLoss, Router: 0, Dir: 0, VC: 99}}}); err == nil {
		t.Error("out-of-range credit-loss VC accepted")
	}
}

func TestCanonical(t *testing.T) {
	var nilPlan *Plan
	if nilPlan.Canonical() != "none" || (&Plan{}).Canonical() != "none" {
		t.Fatal("empty plan canonical != none")
	}
	a := &Plan{Events: []Event{{Kind: TokenLoss, At: 5}}}
	b := &Plan{Seed: 1, Events: []Event{{Kind: TokenLoss, At: 5}}}
	if a.Canonical() != b.Canonical() {
		t.Fatalf("seed 0 and seed 1 canonicals differ:\n%s\n%s", a.Canonical(), b.Canonical())
	}
	if !strings.Contains(a.Canonical(), "token-loss at=5") {
		t.Fatalf("canonical missing event: %s", a.Canonical())
	}
}

// TestCanonicalIsItsFormat: Canonical writes what the format string it was
// first defined by writes, for every event kind, the largest and most negative
// values of every field and the floats %g spells specially, so no spec hash
// moved when it stopped formatting through fmt.
func TestCanonicalIsItsFormat(t *testing.T) {
	ref := func(p *Plan) string {
		var b strings.Builder
		fmt.Fprintf(&b, "seed=%d", p.Normalized().Seed)
		for _, e := range p.Events {
			fmt.Fprintf(&b, ";%s at=%d until=%d router=%d dir=%d endpoint=%d vc=%d cycles=%d rate=%g drop=%v",
				e.Kind, e.At, e.Until, e.Router, e.Dir, e.Endpoint, e.VC, e.Cycles, e.Rate, e.Drop)
		}
		return b.String()
	}
	p := &Plan{Seed: math.MaxUint64}
	for _, k := range []EventKind{LinkDown, LinkFlaky, RouterFreeze, NIStall, CreditLoss, TokenLoss, TokenResurface, "<&>"} {
		p.Events = append(p.Events, Event{Kind: k, At: 1, Until: 2, Router: 3, Dir: 4, Endpoint: 5, VC: 6, Cycles: 7, Rate: 0.25, Drop: true})
	}
	for _, r := range []float64{0, math.Copysign(0, -1), 1e-07, 1e21, 123456789, 5e-324, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()} {
		p.Events = append(p.Events, Event{Kind: LinkFlaky, At: math.MaxInt64, Until: math.MinInt64,
			Router: math.MinInt, Dir: math.MaxInt, Endpoint: -1, VC: math.MinInt, Cycles: math.MinInt64, Rate: r})
	}
	for _, q := range []*Plan{p, {Events: p.Events[:1]}} {
		if got, want := q.Canonical(), ref(q); got != want {
			t.Errorf("canonical\n%s\nwant\n%s", got, want)
		}
	}
}

// TestEmptyPlanInvisible: attaching an injector with no events must leave the
// run byte-identical to one with no injector at all.
func TestEmptyPlanInvisible(t *testing.T) {
	_, _, _, base := runToCompletion(t, smokeConfig(), nil, false)
	n, _, _, withEmpty := runToCompletion(t, smokeConfig(), &Plan{}, false)
	if base.String() != withEmpty.String() || base.Count() != withEmpty.Count() {
		t.Fatalf("empty plan changed the run: %s (%d) vs %s (%d)",
			base, base.Count(), withEmpty, withEmpty.Count())
	}
	if n.Health != nil {
		t.Error("empty plan materialized a health mask")
	}
}

// TestDeterminism: a fixed (plan, seed) pair yields bit-identical runs, even
// with probabilistic drops.
func TestDeterminism(t *testing.T) {
	plan := &Plan{Seed: 42, Events: []Event{
		{Kind: LinkFlaky, At: 500, Until: 3000, Router: 0, Dir: 0, Rate: 0.3, Drop: true},
		{Kind: TokenLoss, At: 1000},
	}}
	_, inj1, _, dig1 := runToCompletion(t, smokeConfig(), plan, false)
	_, inj2, _, dig2 := runToCompletion(t, smokeConfig(), plan, false)
	if dig1.String() != dig2.String() || dig1.Count() != dig2.Count() {
		t.Fatalf("digests differ across identical faulted runs: %s vs %s", dig1, dig2)
	}
	r1, r2 := inj1.Report(), inj2.Report()
	if r1.LostMsgs != r2.LostMsgs || r1.DeliveredMsgs != r2.DeliveredMsgs {
		t.Fatalf("reports differ: %+v vs %+v", r1, r2)
	}
}

// TestLinkDownFullDelivery: a single dead link on the 8-ary 2-cube must not
// cost a single message — routing detours around it — and the invariant
// checker must stay silent.
func TestLinkDownFullDelivery(t *testing.T) {
	plan := &Plan{Events: []Event{{Kind: LinkDown, At: 0, Router: 9, Dir: 0}}}
	n, inj, _, _ := runToCompletion(t, smokeConfig(), plan, true)
	if !n.Quiescent() {
		t.Fatal("run did not drain around a single dead link")
	}
	rep := inj.Report()
	if rep.DeliveredFrac != 1 || rep.LostMsgs != 0 {
		t.Fatalf("lost traffic to a drained link: %+v", rep)
	}
	if rep.DeadLinks != 1 {
		t.Fatalf("dead links = %d, want 1", rep.DeadLinks)
	}
	if n.Health == nil || !n.Health.LinkDead(9, 0) {
		t.Fatal("health mask not installed")
	}
}

// TestTokenLossWatchdogRecovers: with only the token lost, the watchdog
// re-elects exactly one token and the run completes fully.
func TestTokenLossWatchdogRecovers(t *testing.T) {
	cfg := smokeConfig()
	cfg.Pattern = protocol.PAT721
	plan := &Plan{Events: []Event{{Kind: TokenLoss, At: 800}}}
	n, inj, _, _ := runToCompletion(t, cfg, plan, true)
	if !n.Quiescent() {
		t.Fatal("token-loss run did not drain")
	}
	rep := inj.Report()
	if rep.DeliveredFrac != 1 || rep.LostMsgs != 0 {
		t.Fatalf("token loss cost traffic: %+v", rep)
	}
	if rep.TokenLosses != 1 || rep.TokenRegenerations != 1 || rep.TokenEpoch != 2 {
		t.Fatalf("watchdog bookkeeping: %+v", rep)
	}
	if rep.TokenOutageCycles != DefaultRegenTimeout {
		t.Fatalf("outage = %d cycles, want the %d-cycle default timeout",
			rep.TokenOutageCycles, DefaultRegenTimeout)
	}
}

// TestTokenKillRandomizedCycle kills the token at several randomized cycles
// under the paper's PAT721 protocol: whatever the phase, the watchdog must
// re-elect exactly one token (epoch 1 -> 2, one regeneration), the run must
// drain completely, and the checker's Disha coherence invariants must hold.
func TestTokenKillRandomizedCycle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := smokeConfig()
	cfg.Pattern = protocol.PAT721
	for trial := 0; trial < 3; trial++ {
		at := cfg.Warmup + rng.Int63n(cfg.Measure)
		plan := &Plan{Events: []Event{{Kind: TokenLoss, At: at}}}
		n, inj, _, _ := runToCompletion(t, cfg, plan, true)
		rep := inj.Report()
		if !n.Quiescent() {
			t.Fatalf("kill at %d: run did not drain", at)
		}
		if rep.TokenLosses != 1 || rep.TokenRegenerations != 1 {
			t.Fatalf("kill at %d: %d losses, %d regenerations, want exactly 1/1",
				at, rep.TokenLosses, rep.TokenRegenerations)
		}
		if rep.TokenEpoch != 2 {
			t.Fatalf("kill at %d: epoch %d, want 2 (exactly one re-election)", at, rep.TokenEpoch)
		}
		if rep.DeliveredFrac != 1 {
			t.Fatalf("kill at %d: delivered fraction %g", at, rep.DeliveredFrac)
		}
	}
}

// TestTokenResurfaceStaleDiscard: a token copy reappearing after the watchdog
// already re-elected must be discarded, not doubled.
func TestTokenResurfaceStaleDiscard(t *testing.T) {
	plan := &Plan{Events: []Event{
		{Kind: TokenLoss, At: 600},
		// Watchdog regenerates at 600 + DefaultRegenTimeout = 1100; the
		// delayed copy shows up after that.
		{Kind: TokenResurface, At: 1300, Router: 5},
	}}
	n, inj, _, _ := runToCompletion(t, smokeConfig(), plan, true)
	rep := inj.Report()
	if rep.TokenStaleDiscards != 1 || rep.TokenResurfaces != 0 {
		t.Fatalf("stale copy handling: %+v", rep)
	}
	if rep.TokenEpoch != 2 {
		t.Fatalf("epoch = %d, want 2", rep.TokenEpoch)
	}
	if !n.Quiescent() || rep.DeliveredFrac != 1 {
		t.Fatalf("stale resurface disturbed the run: %+v", rep)
	}
}

// TestTokenResurfaceBeforeWatchdog: a copy reappearing while the loss is
// outstanding reinstates the same token — same epoch, no re-election.
func TestTokenResurfaceBeforeWatchdog(t *testing.T) {
	plan := &Plan{Events: []Event{
		{Kind: TokenLoss, At: 600},
		{Kind: TokenResurface, At: 700, Router: 5},
	}}
	n, inj, _, _ := runToCompletion(t, smokeConfig(), plan, true)
	rep := inj.Report()
	if rep.TokenResurfaces != 1 || rep.TokenRegenerations != 0 || rep.TokenEpoch != 1 {
		t.Fatalf("resurface handling: %+v", rep)
	}
	if !n.Quiescent() || rep.DeliveredFrac != 1 {
		t.Fatalf("resurface disturbed the run: %+v", rep)
	}
}

// TestDelayFaultsLoseNothing: freezes, stalls, credit loss, and flaky delay
// (Drop=false) slow traffic but never destroy it.
func TestDelayFaultsLoseNothing(t *testing.T) {
	plan := &Plan{Seed: 3, Events: []Event{
		{Kind: LinkFlaky, At: 600, Until: 2000, Router: 0, Dir: 0, Rate: 0.3},
		{Kind: RouterFreeze, At: 1000, Router: 27, Cycles: 200},
		{Kind: NIStall, At: 1200, Endpoint: 13, Cycles: 200},
		{Kind: CreditLoss, At: 800, Router: 3, Dir: 2, VC: 1},
	}}
	n, inj, _, _ := runToCompletion(t, smokeConfig(), plan, true)
	if !n.Quiescent() {
		t.Fatal("delay faults wedged the run")
	}
	rep := inj.Report()
	if rep.DeliveredFrac != 1 || rep.LostMsgs != 0 || rep.LostFlits != 0 {
		t.Fatalf("delay faults lost traffic: %+v", rep)
	}
	for _, e := range rep.Events {
		if e.Applied == 0 {
			t.Errorf("event %d (%s) never applied", e.Index, e.Kind)
		}
	}
}

// TestOverlappingFreezesAndStalls: a short freeze or stall that lands during
// a longer one must not end it early. Each fault holds its component until the
// later of the two ends, so the long one's end is read at the end of the cycle
// the short one lands in, and the run still delivers everything.
func TestOverlappingFreezesAndStalls(t *testing.T) {
	plan := &Plan{Events: []Event{
		{Kind: RouterFreeze, At: 1000, Router: 27, Cycles: 300},
		{Kind: RouterFreeze, At: 1100, Router: 27, Cycles: 50},
		{Kind: NIStall, At: 1200, Endpoint: 13, Cycles: 300},
		{Kind: NIStall, At: 1250, Endpoint: 13, Cycles: 100},
	}}
	n, err := network.New(smokeConfig())
	if err != nil {
		t.Fatal(err)
	}
	var frozen, stalled int64
	n.OnCycle = func(now int64) { // runs after the fault stage
		switch now {
		case 1100:
			frozen = n.Routers[27].FrozenUntil
		case 1250:
			stalled = n.NIs[13].StallUntil
		}
	}
	checker := check.Attach(n, check.Options{})
	inj, err := Attach(n, plan)
	if err != nil {
		t.Fatal(err)
	}
	n.Run()
	if frozen != 1301 || stalled != 1501 {
		t.Fatalf("router frozen until %d, NI stalled until %d after the short faults landed; want 1301 and 1501", frozen, stalled)
	}
	for _, v := range checker.Violations() {
		t.Errorf("invariant violation: %s", v.Format())
	}
	if rep := inj.Report(); !n.Quiescent() || rep.DeliveredFrac != 1 {
		t.Fatalf("overlapping faults wedged or lost traffic: %+v", rep)
	}
}

// TestDropAccountedAsPartialDelivery: a dropping flaky link destroys worms;
// the loss must surface as delivered fraction < 1 with every lost flit on
// the fault ledger — and the conservation invariant must still balance.
func TestDropAccountedAsPartialDelivery(t *testing.T) {
	plan := &Plan{Seed: 11, Events: []Event{
		{Kind: LinkFlaky, At: 500, Until: 3000, Router: 0, Dir: 0, Rate: 0.5, Drop: true},
	}}
	n, inj, _, _ := runToCompletion(t, smokeConfig(), plan, true)
	rep := inj.Report()
	if rep.LostMsgs == 0 {
		t.Fatal("a half-rate dropping link destroyed nothing")
	}
	if n.Quiescent() {
		t.Fatal("dropped transactions cannot drain, yet the network is quiescent")
	}
	if rep.DeliveredFrac >= 1 {
		t.Fatalf("delivered fraction %g with %d lost msgs", rep.DeliveredFrac, rep.LostMsgs)
	}
	if rep.LostFlits == 0 || n.Faults.LostMsgs != rep.LostMsgs {
		t.Fatalf("loss ledger inconsistent: %+v vs %+v", rep, n.Faults)
	}
	if rep.Events[0].Dropped != rep.LostMsgs {
		t.Fatalf("per-event attribution %d != total %d", rep.Events[0].Dropped, rep.LostMsgs)
	}
}

// TestLinkDownReroutesBlockedHeader: a header already blocked at a router
// when one of its candidate links dies must see the new candidate set on its
// very next allocation attempt — the network's candidate table is the only
// cache, and InvalidateRouting rebuilds it in the cycle the health mask changes.
// The header is parked (its last attempt found every candidate owned, and no
// output VC of its router has been released since), so nothing but
// InvalidateRouting's unpark can make the allocator look at it again.
// Pass 1 finds such a header in a fault-free run (same plan shape, event never
// due, so both passes route through an identical health mask until the kill);
// pass 2 kills that link at that cycle and checks that the dead port left the
// header's candidates and the header the parked set at once, that the next
// cycle's allocation pass attempts it (it ends routed or parked again), that
// no route is ever allocated across the link afterwards, and that the run
// still delivers everything.
func TestLinkDownReroutesBlockedHeader(t *testing.T) {
	cfg := smokeConfig()
	cfg.Rate = 0.012

	type spot struct {
		at            int64
		router, input int
		vc, dir       int
		pkt           message.PacketID
	}
	parked := func(n *network.Network, r, i, v int) bool {
		return n.Routers[r].InputParkedWord(i)>>uint(v)&1 == 1
	}
	// blockedAt returns the header blocked at (router, input, vc), if any.
	blockedAt := func(n *network.Network, r, i, v int, now int64) *message.Packet {
		vc := n.Routers[r].Inputs[i].VCs[v]
		f, ok := vc.Front()
		if !ok || !f.Head() || f.Pkt.BeingRescued || vc.Route != nil || !vc.Blocked(now, 2) {
			return nil
		}
		return f.Pkt
	}

	var found *spot
	n1, err := network.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n1.OnCycle = func(now int64) {
		if found != nil || now < cfg.Warmup {
			return
		}
		for r, rt := range n1.Routers {
			for i, in := range rt.Inputs {
				if in == nil {
					continue
				}
				for v := range in.VCs {
					pkt := blockedAt(n1, r, i, v, now)
					if pkt == nil || !parked(n1, r, i, v) {
						continue
					}
					for _, c := range n1.Candidates(rt.ID, pkt) {
						if int(c.Port) < n1.Torus.Directions() {
							found = &spot{now, r, i, v, int(c.Port), pkt.ID}
							return
						}
					}
				}
			}
		}
	}
	if _, err := Attach(n1, &Plan{Events: []Event{{Kind: LinkDown, At: 1 << 40, Router: 0, Dir: 0}}}); err != nil {
		t.Fatal(err)
	}
	n1.Run()
	if found == nil {
		t.Fatal("no header blocked on a link candidate in the fault-free pass; raise the load")
	}

	n2, err := network.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt := n2.Routers[found.router]
	draining := map[*router.VC]*message.Packet{} // worms allocated across the link before it died
	n2.OnCycle = func(now int64) {               // chained under checker and injector: runs after the kill
		if now < found.at {
			return
		}
		if now == found.at {
			pkt := blockedAt(n2, found.router, found.input, found.vc, now)
			if pkt == nil || pkt.ID != found.pkt {
				t.Fatalf("pass 2 diverged from pass 1 before the fault: header %v at the spot, want pkt %d", pkt, found.pkt)
			}
			for _, c := range n2.Candidates(rt.ID, pkt) {
				if int(c.Port) == found.dir {
					t.Errorf("blocked pkt %d still has dead port %d among its candidates in the kill cycle", pkt.ID, found.dir)
				}
			}
			if parked(n2, found.router, found.input, found.vc) {
				t.Errorf("pkt %d is still parked after the kill: it would wait for a release, not for the new candidates", pkt.ID)
			}
		}
		if now == found.at+1 {
			// The header was parked in pass 1 at this point in time (same run
			// up to the kill), so only the kill can have woken it.
			vc := rt.Inputs[found.input].VCs[found.vc]
			if f, ok := vc.Front(); ok && f.Pkt.ID == found.pkt && vc.Route == nil &&
				!parked(n2, found.router, found.input, found.vc) {
				t.Errorf("pkt %d was not re-attempted in the cycle after the kill: neither routed nor parked again", found.pkt)
			}
		}
		for _, in := range rt.Inputs {
			if in == nil {
				continue
			}
			for _, vc := range in.VCs {
				if vc.Route == nil || int(vc.RoutePort) != found.dir {
					continue
				}
				if now == found.at {
					draining[vc] = vc.Owner
				} else if draining[vc] != vc.Owner {
					t.Fatalf("cycle %d: %v allocated a route across the dead link for pkt %d", now, vc, vc.Owner.ID)
				}
			}
		}
	}
	checker := check.Attach(n2, check.Options{})
	plan := &Plan{Events: []Event{{Kind: LinkDown, At: found.at, Router: found.router, Dir: found.dir}}}
	inj, err := Attach(n2, plan)
	if err != nil {
		t.Fatal(err)
	}
	n2.Run()
	for _, v := range checker.Violations() {
		t.Errorf("invariant violation: %s", v.Format())
	}
	if rep := inj.Report(); !n2.Quiescent() || rep.DeliveredFrac != 1 || rep.LostMsgs != 0 {
		t.Fatalf("traffic lost or stuck after the mid-run link-down: quiescent=%v %+v", n2.Quiescent(), rep)
	}
}
