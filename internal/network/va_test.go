package network

import (
	"testing"

	"repro/internal/protocol"
	"repro/internal/schemes"
)

// TestVAAttemptsPerGrant pins the allocator's work per worm routed at the
// saturation knee with exact counters, which no host can blur: over the six
// engine_loaded configurations of the benchmark (bench/inputs.go: {PR@4VC,
// DR@4VC, SA@8VC} x {PAT271, PAT721}, 8x8 torus, rate 0.012, 4000 cycles, no
// drain, scan every 50 cycles — re-declared here with this test's own seeds)
// the routers may make at most two allocation attempts per grant. Retrying
// every blocked header every cycle, as the allocator did before headers were
// parked, costs 4.0 on the same runs; the second run of each configuration
// measures exactly that by unparking every router at every cycle boundary,
// and its grants must be the same number: parking may only remove attempts
// that fail.
func TestVAAttemptsPerGrant(t *testing.T) {
	var attempts, grants, retryAttempts int64
	seed := uint64(16)
	for _, sc := range []struct {
		kind schemes.Kind
		vcs  int
	}{{schemes.PR, 4}, {schemes.DR, 4}, {schemes.SA, 8}} {
		for _, pat := range []*protocol.Pattern{protocol.PAT271, protocol.PAT721} {
			cfg := DefaultConfig()
			cfg.Scheme, cfg.VCs, cfg.Pattern, cfg.Rate = sc.kind, sc.vcs, pat, 0.012
			cfg.Warmup, cfg.Measure, cfg.MaxDrain = 1000, 3000, 0
			cfg.CWGInterval = 50
			seed++
			cfg.Seed = seed

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
				sc.kind, pat.Name, a, g, float64(a)/float64(g), ra, float64(ra)/float64(rg))
			if g != rg || g == 0 {
				t.Fatalf("%v %s: %d grants parked, %d retrying every cycle", sc.kind, pat.Name, g, rg)
			}
			attempts, grants, retryAttempts = attempts+a, grants+g, retryAttempts+ra
		}
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
