package check_test

import (
	"testing"

	"repro/internal/check"
	"repro/internal/message"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/schemes"
)

// runMode runs cfg to completion in the requested stepping mode and returns
// the delivery digest plus the final clock value.
func runMode(t *testing.T, cfg network.Config, dense bool) (*check.Digest, int64) {
	t.Helper()
	n := mustNet(t, cfg)
	n.SetDense(dense)
	d := check.AttachDigest(n)
	c := check.Attach(n, check.Options{Interval: 64})
	n.Run()
	if err := c.Err(); err != nil {
		t.Fatalf("dense=%v: %v", dense, err)
	}
	return d, n.Clock.Now()
}

// TestSkipAheadDenseEquivalence is the byte-identity statement for the
// active-set sweep: for every configuration and seed, the sparse engine
// (active sets + quiescence skip-ahead) must deliver the exact same message
// stream — same digest, same count — and finish at the exact same cycle as
// dense stepping, with the invariant checker clean in both modes. Low rates
// exercise the skip-ahead fast path hardest (most cycles touch almost
// nothing); moderate rates exercise mid-sweep wake ordering.
func TestSkipAheadDenseEquivalence(t *testing.T) {
	cases := []struct {
		name string
		kind schemes.Kind
		pat  *protocol.Pattern
		vcs  int
		rate float64
		seed uint64
	}{
		{"PR-PAT721-low", schemes.PR, protocol.PAT721, 4, 0.002, 1},
		{"PR-PAT721-mid", schemes.PR, protocol.PAT721, 4, 0.015, 7},
		{"PR-PAT280-fanout", schemes.PR, protocol.PAT280, 4, 0.01, 3},
		{"DR-PAT721-mid", schemes.DR, protocol.PAT721, 8, 0.012, 5},
		{"SA-PAT721-mid", schemes.SA, protocol.PAT721, 8, 0.012, 11},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallCfg(tc.kind, tc.pat, tc.vcs, tc.rate)
			cfg.Seed = tc.seed
			dDense, clkDense := runMode(t, cfg, true)
			dSkip, clkSkip := runMode(t, cfg, false)
			if dDense.Sum() != dSkip.Sum() || dDense.Count() != dSkip.Count() {
				t.Fatalf("digest diverged: dense %v (%d deliveries) vs skip-ahead %v (%d)",
					dDense, dDense.Count(), dSkip, dSkip.Count())
			}
			if clkDense != clkSkip {
				t.Fatalf("final clock diverged: dense %d vs skip-ahead %d", clkDense, clkSkip)
			}
			if dDense.Count() == 0 {
				t.Fatal("equivalence vacuous: nothing delivered")
			}
		})
	}
}

// TestRegimeSwitchEquivalence toggles SetDense mid-run, which the engine
// promises is safe between any two cycles: activity flags, catch-up stamps
// and consumer wakes are maintained in both regimes. A run that flips every
// few hundred cycles (an uneven period, so flips land on scan cycles and off
// them) must match a pure dense run in digest, delivery count and final
// clock, with the checker clean throughout.
func TestRegimeSwitchEquivalence(t *testing.T) {
	cases := []struct {
		name string
		kind schemes.Kind
		rate float64
		seed uint64
	}{
		{"PR-low", schemes.PR, 0.002, 2},
		{"PR-mid", schemes.PR, 0.015, 4},
		{"DR-mid", schemes.DR, 0.012, 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallCfg(tc.kind, protocol.PAT721, 4, tc.rate)
			cfg.Seed = tc.seed
			dDense, clkDense := runMode(t, cfg, true)

			n := mustNet(t, cfg)
			d := check.AttachDigest(n)
			c := check.Attach(n, check.Options{Interval: 64})
			dense, flips := false, 0
			prev := n.OnCycle
			n.OnCycle = func(now int64) {
				prev(now)
				if now%237 == 236 {
					dense = !dense
					n.SetDense(dense)
					flips++
				}
			}
			n.Run()
			if err := c.Err(); err != nil {
				t.Fatal(err)
			}
			if flips < 8 {
				t.Fatalf("only %d regime switches; the run is too short to test them", flips)
			}
			if d.Sum() != dDense.Sum() || d.Count() != dDense.Count() {
				t.Fatalf("digest diverged: dense %v (%d deliveries) vs switching %v (%d)",
					dDense, dDense.Count(), d, d.Count())
			}
			if now := n.Clock.Now(); now != clkDense {
				t.Fatalf("final clock diverged: dense %d vs switching %d", clkDense, now)
			}
			if d.Count() == 0 {
				t.Fatal("equivalence vacuous: nothing delivered")
			}
		})
	}
}

// TestRoutedMaskDriftCaught forges the exact corruption the bitmask sweep is
// exposed to: clearing a VC's canonical Route field without going through
// clearRoute, so the router's routed and ready words go stale. The
// active-state cross-check must flag both within one CheckNow.
func TestRoutedMaskDriftCaught(t *testing.T) {
	n := mustNet(t, smallCfg(schemes.PR, protocol.PAT271, 8, 0.01))
	c := check.Attach(n, check.Options{})

	var target *router.VC
	for i := 0; i < 3000 && target == nil; i++ {
		n.RunCycles(1)
		for _, ch := range n.Channels {
			for _, vc := range ch.VCs {
				if vc.Route != nil && vc.Route.SpaceFor() {
					target = vc
					break
				}
			}
			if target != nil {
				break
			}
		}
	}
	if target == nil {
		t.Fatal("no routed VC appeared within 3000 cycles")
	}

	// Bypass clearRoute, on a VC whose ready bit is set so both words go stale.
	target.Route = nil
	c.CheckNow(n.Clock.Now())
	for _, rule := range []string{"routed-mask-drift", "ready-mask-drift"} {
		if !hasRule(c.Violations(), rule) {
			t.Errorf("%s not caught; rules seen: %v", rule, rules(c.Violations()))
		}
	}
}

// TestEjectionOccMaskDriftCaught forges a stale bit in the occupancy word of
// an ejection channel — a channel no router hosts, whose word the NI drain
// and the CWG scan trust — by committing a flit (bit set) and then emptying
// the buffer behind the bookkeeping's back. occ-mask-drift must cover it.
func TestEjectionOccMaskDriftCaught(t *testing.T) {
	n := mustNet(t, smallCfg(schemes.PR, protocol.PAT271, 8, 0.005))
	c := check.Attach(n, check.Options{})
	n.RunCycles(50)
	now := n.Clock.Now()

	var target *router.VC
	for _, ni := range n.NIs {
		for _, vc := range ni.Eject.VCs {
			if vc.Len() == 0 && vc.Owner == nil {
				target = vc
				break
			}
		}
		if target != nil {
			break
		}
	}
	if target == nil {
		t.Fatal("no free ejection VC after 50 cycles")
	}
	m := n.Pool.NewMessage(0, message.M1, 0, 0, 1, 1, now)
	pkt := n.Pool.NewPacket(message.PacketID(1<<30), m)
	target.Owner = pkt
	target.Stage(message.Flit{Pkt: pkt, Idx: 0})
	target.Ch.Commit(now)
	if target.Ch.OccMask()>>uint(target.Index)&1 != 1 {
		t.Fatal("commit did not set the ejection channel's occupancy bit")
	}
	target.RestoreState(router.VCState{}, func(p *message.Packet) *message.Packet { return p })

	c.CheckNow(now)
	if !hasRule(c.Violations(), "occ-mask-drift") {
		t.Fatalf("stale ejection occupancy bit not caught; rules seen: %v", rules(c.Violations()))
	}
}
