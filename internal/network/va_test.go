package network

import (
	"testing"

	"repro/internal/protocol"
	"repro/internal/schemes"
)

// benchConfigs re-declares the six engine configurations of the benchmark
// (bench/inputs.go: {PR@4VC, DR@4VC, SA@8VC} x {PAT271, PAT721}, 8x8 torus,
// 4000 cycles, no drain, scan every 50 cycles) at the given rate, with seeds
// counting up from seed+1: the tests below own their seeds.
func benchConfigs(rate float64, seed uint64) []Config {
	var cfgs []Config
	for _, sc := range []struct {
		kind schemes.Kind
		vcs  int
	}{{schemes.PR, 4}, {schemes.DR, 4}, {schemes.SA, 8}} {
		for _, pat := range []*protocol.Pattern{protocol.PAT271, protocol.PAT721} {
			cfg := DefaultConfig()
			cfg.Scheme, cfg.VCs, cfg.Pattern, cfg.Rate = sc.kind, sc.vcs, pat, rate
			cfg.Warmup, cfg.Measure, cfg.MaxDrain = 1000, 3000, 0
			cfg.CWGInterval = 50
			seed++
			cfg.Seed = seed
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// TestVAAttemptsPerGrant pins the allocator's work per worm routed at the
// saturation knee with exact counters, which no host can blur: over the six
// engine_loaded configurations of the benchmark (rate 0.012) the routers may
// make at most two allocation attempts per grant. Retrying every blocked
// header every cycle, as the allocator did before headers were parked, costs
// 4.0 on the same runs; the second run of each configuration measures exactly
// that by unparking every router at every cycle boundary, and its grants must
// be the same number: parking may only remove attempts that fail.
func TestVAAttemptsPerGrant(t *testing.T) {
	var attempts, grants, retryAttempts int64
	for _, cfg := range benchConfigs(0.012, 16) {
		n := mustNet(t, cfg)
		n.Run()
		a, g := n.VACounts()

		ref := mustNet(t, cfg)
		ref.OnCycle = func(int64) {
			for _, r := range ref.Routers {
				r.Unpark()
			}
		}
		ref.Run()
		ra, rg := ref.VACounts()

		t.Logf("%v %s: %d attempts / %d grants = %.2f (retrying every cycle: %d, %.2f)",
			cfg.Scheme, cfg.Pattern.Name, a, g, float64(a)/float64(g), ra, float64(ra)/float64(rg))
		if g != rg || g == 0 {
			t.Fatalf("%v %s: %d grants parked, %d retrying every cycle", cfg.Scheme, cfg.Pattern.Name, g, rg)
		}
		attempts, grants, retryAttempts = attempts+a, grants+g, retryAttempts+ra
	}
	ratio := float64(attempts) / float64(grants)
	t.Logf("all six: %d attempts / %d grants = %.2f; retrying every cycle %d = %.2f",
		attempts, grants, ratio, retryAttempts, float64(retryAttempts)/float64(grants))
	if ratio > 2.0 {
		t.Fatalf("%.2f allocation attempts per grant at the knee, want <= 2.0", ratio)
	}
	if retryAttempts < 2*attempts {
		t.Fatalf("the knee is not blocking: retrying every cycle costs only %d attempts against %d parked", retryAttempts, attempts)
	}
}

// TestActiveSetWorkShare pins what the active-set sweep is for, as exact
// counts: over the six engine_sparse configurations of the benchmark (rate
// 0.001, where applications spend over 90% of their run) at most a fifth of
// the routers and 7% of the NIs may still be in the active sets at the end of
// a cycle, counted at every OnCycle through RouterActive/NIActive exactly as
// bench/layers.go computes network.active_router_share, and the NI steps
// actually executed (Network.StepCounts) may be at most half of what they
// were while an NI waiting out its memory controller stayed in the set. It
// replaces a CI step that timed sparse against forced-dense stepping and
// asserted a 2x ratio, which every speedup of the router step itself eroded
// (11.7x at PR 7, 2.86x by PR 17) with no bug anywhere.
//
// Mutation checks: with the `if r.InputsIdle() { n.activeRW[wi] &^= b }` clear
// dropped from Network.sweep, no router ever leaves the active set, the
// router share reads 1.0000 and this test fails; with NI.Dormant never
// reporting a finite wake the NI share reads 0.1093 and it fails. In both the
// digests of check.TestSkipAheadDenseEquivalence and TestGoldenDigests still
// match: the results stay byte-identical and only the work is wasted, so no
// comparison of results catches it.
func TestActiveSetWorkShare(t *testing.T) {
	var cycles, routers, nis, idle, routerSlots, niSlots int64
	var routerSteps, niSteps, skipped int64
	for _, cfg := range benchConfigs(0.001, 32) {
		n := mustNet(t, cfg)
		var c, r, e int64
		n.OnCycle = func(int64) {
			c++
			before := r + e
			for id := range n.Routers {
				if n.RouterActive(id) {
					r++
				}
			}
			for ep := range n.NIs {
				if n.NIActive(ep) {
					e++
				}
			}
			if r+e == before {
				idle++
			}
		}
		n.Run()
		rs, es := c*int64(len(n.Routers)), c*int64(len(n.NIs))
		sr, sn, sk := n.StepCounts()
		t.Logf("%v %s: %d of %d router-cycles active (%.4f), %d of %d NI-cycles (%.4f), %d cycles; executed %d router steps, %d NI steps, %d cycles skipped the sweep",
			cfg.Scheme, cfg.Pattern.Name, r, rs, float64(r)/float64(rs), e, es, float64(e)/float64(es), c, sr, sn, sk)
		cycles, routers, nis, routerSlots, niSlots = cycles+c, routers+r, nis+e, routerSlots+rs, niSlots+es
		routerSteps, niSteps, skipped = routerSteps+sr, niSteps+sn, skipped+sk
	}
	routerShare, niShare := float64(routers)/float64(routerSlots), float64(nis)/float64(niSlots)
	t.Logf("all six: %d of %d router-cycles active (%.4f), %d of %d NI-cycles (%.4f), %d of %d cycles fully idle",
		routers, routerSlots, routerShare, nis, niSlots, niShare, idle, cycles)
	t.Logf("all six, executed: %d router steps, %d NI steps, %d cycles skipped the sweep", routerSteps, niSteps, skipped)
	if routers == 0 || nis == 0 {
		t.Fatal("nothing was ever active: the runs carried no traffic")
	}
	if routerShare > 0.20 || niShare > 0.07 {
		t.Fatalf("active share at rate 0.001: routers %.4f, want <= 0.20; NIs %.4f, want <= 0.07", routerShare, niShare)
	}
	if niSteps > parentNISteps/2 {
		t.Fatalf("%d NI steps executed, want at most half of the %d executed with the endpoints on the clock", niSteps, parentNISteps)
	}
	if routers != 208067 || routerSteps != 208406 {
		t.Fatalf("the router side moved: %d router-cycles active, %d router steps; want 208067, 208406", routers, routerSteps)
	}
}

// parentNISteps is the NI steps TestActiveSetWorkShare's runs executed at
// f47e428 (recorded there through StepCounts, with 167,940 NI-cycles in the
// active set at OnCycle and 112 cycles skipping the sweep), when an NI
// waiting out its memory controller was stepped every cycle.
const parentNISteps = 169657
