package check_test

import (
	"math/bits"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/ckpt"
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
	shortTimers := countShortTimers(t, n)
	n.Run()
	if err := c.Err(); err != nil {
		t.Fatalf("dense=%v: %v", dense, err)
	}
	if !dense && (cfg.ServiceTime > 63) != (*shortTimers > 0) {
		t.Fatalf("service time %d but %d NI-cycles asleep on a timer short of their wake: the re-arm path is tested iff the service outlasts the ring",
			cfg.ServiceTime, *shortTimers)
	}
	return d, n.Clock.Now()
}

// countShortTimers counts, at the end of every cycle, the sleeping NIs whose
// wake lies further ahead than the wake ring reaches, so that their timer
// fires early and they must re-arm. It also holds every timer to the ring's
// own invariant: it lies in the 63 cycles after the current one, never in the
// current cycle's slot, which has been consumed and would fire 64 cycles on.
//
// Mutation check: arming at until&63 without the now+63 clamp changes no
// result (the slot still fires by the wake) and fails here on the first
// 64-cycle service: an NI that falls asleep in the cycle its service starts
// lands in the slot just consumed.
func countShortTimers(t *testing.T, n *network.Network) *int {
	count := new(int)
	prev := n.OnCycle
	n.OnCycle = func(now int64) {
		prev(now)
		for ep := range n.NIs {
			until, ok := asleepOnTimer(n, ep)
			if !ok {
				continue
			}
			at := n.NIWakeAt(ep)
			if at <= now || at > now+63 {
				t.Errorf("cycle %d: ni%d asleep until %d with its timer at %d, outside the next 63 cycles", now, ep, until, at)
			}
			if at < until {
				*count++
			}
		}
	}
	return count
}

// TestSkipAheadDenseEquivalence is the byte-identity statement for the
// active-set sweep: for every configuration and seed, the sparse engine
// (active sets + quiescence skip-ahead) must deliver the exact same message
// stream — same digest, same count — and finish at the exact same cycle as
// dense stepping, with the invariant checker clean in both modes. Low rates
// exercise the skip-ahead fast path hardest (most cycles touch almost
// nothing); moderate rates exercise mid-sweep wake ordering. The service
// times walk an NI waiting out its controller across the 64-slot wake ring:
// 1 never sleeps, 63 is the furthest wake the ring holds, 64 and 200 must be
// re-armed on the way.
func TestSkipAheadDenseEquivalence(t *testing.T) {
	cases := []struct {
		name    string
		kind    schemes.Kind
		pat     *protocol.Pattern
		vcs     int
		rate    float64
		seed    uint64
		service int // 0: the default 40
	}{
		{"PR-PAT721-low", schemes.PR, protocol.PAT721, 4, 0.002, 1, 0},
		{"PR-PAT721-mid", schemes.PR, protocol.PAT721, 4, 0.015, 7, 0},
		{"PR-PAT280-fanout", schemes.PR, protocol.PAT280, 4, 0.01, 3, 0},
		{"DR-PAT721-mid", schemes.DR, protocol.PAT721, 8, 0.012, 5, 0},
		{"SA-PAT721-mid", schemes.SA, protocol.PAT721, 8, 0.012, 11, 0},
		{"PR-PAT721-16vc", schemes.PR, protocol.PAT721, 16, 0.015, 13, 0}, // two words per router
		{"PR-service-1", schemes.PR, protocol.PAT721, 4, 0.015, 15, 1},
		{"DR-service-63", schemes.DR, protocol.PAT721, 4, 0.008, 17, 63},
		{"SA-service-64", schemes.SA, protocol.PAT721, 8, 0.008, 19, 64},
		{"PR-service-200", schemes.PR, protocol.PAT721, 4, 0.003, 21, 200},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallCfg(tc.kind, tc.pat, tc.vcs, tc.rate)
			cfg.Seed = tc.seed
			if tc.service != 0 {
				cfg.ServiceTime = tc.service
			}
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
		name    string
		kind    schemes.Kind
		rate    float64
		seed    uint64
		service int // 0: the default 40; the others as in TestSkipAheadDenseEquivalence
	}{
		{"PR-low", schemes.PR, 0.002, 2, 0},
		{"PR-mid", schemes.PR, 0.015, 4, 0},
		{"DR-mid", schemes.DR, 0.012, 6, 0},
		{"DR-service-1", schemes.DR, 0.012, 8, 1},
		{"PR-service-63", schemes.PR, 0.008, 10, 63},
		{"PR-service-64", schemes.PR, 0.008, 12, 64},
		{"DR-service-200", schemes.DR, 0.003, 14, 200},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallCfg(tc.kind, protocol.PAT721, 4, tc.rate)
			cfg.Seed = tc.seed
			if tc.service != 0 {
				cfg.ServiceTime = tc.service
			}
			dDense, clkDense := runMode(t, cfg, true)

			n := mustNet(t, cfg)
			d := check.AttachDigest(n)
			c := check.Attach(n, check.Options{Interval: 64})
			shortTimers := countShortTimers(t, n)
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
			if cfg.ServiceTime > 63 && *shortTimers == 0 {
				t.Fatalf("service time %d but no NI ever slept on a timer short of its wake", cfg.ServiceTime)
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

// secondWordInput is the input of a secondWordCfg router whose VCs lie in the
// router's second word, and not at its start: four link inputs of 16 VCs fill
// the first word, the two injection channels take bits 0..15 and 16..31 of the
// second. The mask-drift tests forge a VC there too, so the checker is also
// held to reading a group through the accessors' word index, shift and mask.
const secondWordInput = 5

func secondWordCfg(kind schemes.Kind, pat *protocol.Pattern, rate float64) network.Config {
	cfg := smallCfg(kind, pat, 16, rate)
	cfg.Bristling = 2
	return cfg
}

// TestRoutedMaskDriftCaught forges the exact corruption the bitmask sweep is
// exposed to: clearing a VC's canonical Route field without going through
// release, so the router's routed and ready bits go stale. The active-state
// cross-check must flag both, and nothing else, within one CheckNow.
func TestRoutedMaskDriftCaught(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   network.Config
		input int // -1: any
	}{
		{"8vc", smallCfg(schemes.PR, protocol.PAT271, 8, 0.01), -1},
		{"16vc-second-word", secondWordCfg(schemes.PR, protocol.PAT271, 0.01), secondWordInput},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := mustNet(t, tc.cfg)
			c := check.Attach(n, check.Options{})

			var target *router.VC
			for i := 0; i < 3000 && target == nil; i++ {
				n.RunCycles(1)
				for _, r := range n.Routers {
					for i, in := range r.Inputs {
						if in == nil || (tc.input >= 0 && i != tc.input) {
							continue
						}
						for _, vc := range in.VCs {
							if vc.Route != nil && vc.Route.SpaceFor() {
								target = vc
							}
						}
					}
				}
			}
			if target == nil {
				t.Fatal("no routed VC appeared within 3000 cycles")
			}

			// Bypass release, on a VC whose ready bit is set so both words go stale.
			target.Route = nil
			c.CheckNow(n.Clock.Now())
			for _, rule := range []string{"routed-mask-drift", "ready-mask-drift"} {
				if !hasRule(c.Violations(), rule) {
					t.Errorf("%s not caught; rules seen: %v", rule, rules(c.Violations()))
				}
			}
			if len(c.Violations()) != 2 {
				t.Errorf("one forged VC raised %v", rules(c.Violations()))
			}
		})
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
	empty := ckpt.NewWriter(0, 0)
	target.Checkpoint(empty, n.Channels)
	m := n.Pool.NewMessage(0, message.M1, 0, 0, 1, 1, now)
	pkt := n.Pool.NewPacket(message.PacketID(1<<30), m)
	target.Owner = pkt
	target.Stage(message.Flit{Pkt: pkt, Idx: 0})
	target.Ch.Commit(now)
	if target.Ch.OccMask()>>uint(target.Index)&1 != 1 {
		t.Fatal("commit did not set the ejection channel's occupancy bit")
	}
	target.Checkpoint(empty.Replay(), n.Channels) // and no ResetDerived

	c.CheckNow(now)
	if !hasRule(c.Violations(), "occ-mask-drift") {
		t.Fatalf("stale ejection occupancy bit not caught; rules seen: %v", rules(c.Violations()))
	}
}

// parkingRun is one run of cfg with the digest and the checker attached. With
// retry set, an OnCycle hook unparks every router at every cycle boundary, so
// each blocked header is re-attempted every cycle: the allocator as it was
// before headers were parked.
type parkingRun struct {
	digest             *check.Digest
	clock              int64
	counters           [5]int64 // delivered flits, detect events, deflections, rescues, CWG deadlocks
	attempts, grants   int64
	parkedAtSomeSample bool
}

func runParking(t *testing.T, cfg network.Config, retry bool) parkingRun {
	t.Helper()
	n := mustNet(t, cfg)
	d := check.AttachDigest(n)
	c := check.Attach(n, check.Options{Interval: 64})
	var out parkingRun
	prev := n.OnCycle
	n.OnCycle = func(now int64) {
		prev(now) // the checker sees the parked words before they are wiped
		for _, r := range n.Routers {
			if retry {
				r.Unpark()
				continue
			}
			for i := range r.Inputs {
				if r.InputParkedWord(i) != 0 {
					out.parkedAtSomeSample = true
				}
			}
		}
	}
	n.Run()
	if err := c.Err(); err != nil {
		t.Fatalf("retry=%v: %v", retry, err)
	}
	st := n.Stats
	out.digest, out.clock = d, n.Clock.Now()
	out.counters = [5]int64{st.DeliveredFlits, st.DetectEvents, st.Deflections, st.Rescues, st.CWGDeadlocks}
	out.attempts, out.grants = n.VACounts()
	return out
}

// TestParkingEquivalence is the byte-identity statement for event-driven VC
// allocation: parking a header until an output VC of its router is released
// must be indistinguishable from re-attempting it every cycle. The reference
// run wipes every parked word at every cycle boundary, which is exactly the
// retry-every-cycle allocator; digest, delivery count, final clock and the
// exact counters (grants included — only failed attempts may disappear) must
// match on the three benchmark schemes at the 8x8 knee and on scarce 4x4
// PAT721 where recovery actually runs.
//
// Mutation-checked: with the Unpark call removed from VC.release this test
// fails on tail Dequeue alone (worms stop at the first contended hop) and, with
// only Evacuate's call removed, on PR-scarce (and parked-mask-drift fires);
// removing the unpark loop from Network.InvalidateRouting fails
// fault.TestLinkDownReroutesBlockedHeader.
func TestParkingEquivalence(t *testing.T) {
	knee := func(kind schemes.Kind, pat *protocol.Pattern, vcs int) network.Config {
		cfg := network.DefaultConfig() // 8x8 torus
		cfg.Scheme, cfg.Pattern, cfg.VCs, cfg.Rate = kind, pat, vcs, 0.012
		cfg.Warmup, cfg.Measure, cfg.MaxDrain = 500, 2500, 8000
		return cfg
	}
	scarce := func(kind schemes.Kind, vcs int, rate float64) network.Config {
		cfg := smallCfg(kind, protocol.PAT721, vcs, rate)
		cfg.QueueCap = 2
		return cfg
	}
	cases := []struct {
		name                      string
		cfg                       network.Config
		wantRescues, wantDeflects bool
	}{
		{"PR-4VC-knee", knee(schemes.PR, protocol.PAT721, 4), false, false},
		{"DR-4VC-knee", knee(schemes.DR, protocol.PAT271, 4), false, false},
		{"SA-8VC-knee", knee(schemes.SA, protocol.PAT271, 8), false, false},
		{"PR-scarce", scarce(schemes.PR, 2, 0.03), true, false},
		{"DR-scarce", scarce(schemes.DR, 4, 0.03), false, true},
		{"PR-16VC", scarce(schemes.PR, 16, 0.05), false, false}, // two words per router
	}
	for i, tc := range cases {
		tc, seed := tc, uint64(3+2*i)
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Seed = seed
			ref := runParking(t, tc.cfg, true)
			got := runParking(t, tc.cfg, false)
			if ref.digest.Sum() != got.digest.Sum() || ref.digest.Count() != got.digest.Count() {
				t.Fatalf("digest diverged: retry-every-cycle %v (%d deliveries) vs parked %v (%d)",
					ref.digest, ref.digest.Count(), got.digest, got.digest.Count())
			}
			if ref.clock != got.clock || ref.counters != got.counters {
				t.Fatalf("counters diverged: retry-every-cycle clock %d %v vs parked clock %d %v",
					ref.clock, ref.counters, got.clock, got.counters)
			}
			if ref.grants != got.grants {
				t.Fatalf("grants diverged: retry-every-cycle %d vs parked %d", ref.grants, got.grants)
			}
			if got.digest.Count() == 0 || !got.parkedAtSomeSample || got.attempts >= ref.attempts {
				t.Fatalf("equivalence vacuous: %d deliveries, parked seen=%v, attempts %d parked vs %d retrying",
					got.digest.Count(), got.parkedAtSomeSample, got.attempts, ref.attempts)
			}
			t.Logf("clock %d counters %v; attempts %d -> %d for %d grants", got.clock, got.counters, ref.attempts, got.attempts, got.grants)
			if tc.wantRescues && got.counters[3] == 0 {
				t.Fatal("no rescue happened: Evacuate's unpark went untested")
			}
			if tc.wantDeflects && got.counters[2] == 0 {
				t.Fatal("no deflection happened")
			}
		})
	}
}

// TestParkedMaskDriftCaught forges the corruption parking is exposed to: an
// output VC loses its owner without going through VC.release, so a header
// parked on it is never woken. parked-mask-drift must name it. If the forged
// VC still buffers flits, they then belong to no packet: ownerless-flits must
// name that VC too, and neither the sweep nor the snapshot each violation
// takes may reach for the packet an ownerless VC's flits would name (there is
// none).
func TestParkedMaskDriftCaught(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   network.Config
		input int // -1: any
	}{
		{"2vc", smallCfg(schemes.PR, protocol.PAT721, 2, 0.03), -1},
		{"16vc-second-word", secondWordCfg(schemes.SA, protocol.PAT721, 0.03), secondWordInput},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := mustNet(t, tc.cfg)
			c := check.Attach(n, check.Options{})
			for cycle := 0; cycle < 3000; cycle++ {
				n.RunCycles(1) // the first sweep steps every router, so the words exist
				for _, r := range n.Routers {
					for i, in := range r.Inputs {
						if in == nil || r.InputParkedWord(i) == 0 || (tc.input >= 0 && i != tc.input) {
							continue
						}
						if err := c.Err(); err != nil {
							t.Fatalf("violations before the forgery: %v", err)
						}
						f, _ := in.VCs[bits.TrailingZeros64(r.InputParkedWord(i))].Front()
						cand := n.Candidates(r.ID, f.Pkt)[0]
						out := r.Outputs[cand.Port].VCs[cand.VC]
						out.Owner = nil // bypasses release
						c.CheckNow(n.Clock.Now())
						if !hasRule(c.Violations(), "parked-mask-drift") {
							t.Fatalf("stale parked bit not caught; rules seen: %v", rules(c.Violations()))
						}
						if out.Len() > 0 && !hasRule(c.Violations(), "ownerless-flits") {
							t.Fatalf("%v holds %d flits of no packet, not caught; rules seen: %v", out, out.Len(), rules(c.Violations()))
						}
						for _, v := range c.Violations() {
							if v.Rule == "ownerless-flits" && !strings.HasPrefix(v.Detail, out.String()+" ") {
								t.Fatalf("ownerless-flits names another VC than the forged %v: %s", out, v.Detail)
							}
						}
						return
					}
				}
			}
			t.Fatal("no header was parked within 3000 cycles")
		})
	}
}
