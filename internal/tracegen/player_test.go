package tracegen_test

import (
	"testing"

	"repro/internal/network"
	"repro/internal/schemes"
	"repro/internal/tracegen"
)

// playTrace runs an application trace, generated at seed 5, through a PR
// network and returns the network and player.
func playTrace(t *testing.T, app tracegen.App, cycles int64, bristling int, radix []int) (*network.Network, *tracegen.Player) {
	t.Helper()
	cfg := network.DefaultConfig()
	cfg.Radix = radix
	cfg.Bristling = bristling
	cfg.Scheme = schemes.PR
	cfg.Seed = 5
	cfg.Measure = cycles
	cfg.MaxDrain = 20000
	n, p, err := tracegen.NewNetwork(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	n.Run()
	return n, p
}

func TestPlayerDrivesNetworkToCompletion(t *testing.T) {
	n, p := playTrace(t, tracegen.FFT, 20000, 1, []int{4, 4})
	if p.Transactions == 0 {
		t.Fatal("no transactions generated")
	}
	if n.Stats.TxnCompleted == 0 {
		t.Fatal("no transactions completed")
	}
	if p.Active(n.Clock.Now()) {
		t.Fatal("player still active after drain")
	}
	if !n.Quiescent() {
		t.Fatalf("network not quiescent, %d txns", n.Table.Len())
	}
}

func TestPlayerHitsBypassNetwork(t *testing.T) {
	_, p := playTrace(t, tracegen.LU, 15000, 1, []int{4, 4})
	if p.Hits == 0 {
		t.Fatal("trace produced no cache hits (hot lines broken)")
	}
	// Transactions + local directs must equal misses.
	if p.Transactions+p.LocalDirect != p.Sys.Misses() {
		t.Fatalf("txns %d + local %d != misses %d", p.Transactions, p.LocalDirect, p.Sys.Misses())
	}
}

func TestPlayerNoDeadlocksAtApplicationLoads(t *testing.T) {
	// Section 4.2.2: application traces never deadlock, even bristled.
	for _, sh := range []struct {
		radix     []int
		bristling int
	}{{[]int{4, 4}, 1}, {[]int{2, 4}, 2}, {[]int{2, 2}, 4}} {
		n, _ := playTrace(t, tracegen.Radix, 15000, sh.bristling, sh.radix)
		if n.Stats.CWGDeadlocks != 0 {
			t.Errorf("radix %v b=%d: %d deadlocks at application load",
				sh.radix, sh.bristling, n.Stats.CWGDeadlocks)
		}
	}
}

func TestPlayerMSHRStall(t *testing.T) {
	// With a single MSHR, the player must still make progress, just more
	// slowly (stalls bound outstanding to 1).
	cfg := network.DefaultConfig()
	cfg.Radix = []int{4, 4}
	cfg.Scheme = schemes.PR
	cfg.Seed = 7
	cfg.Measure, cfg.MaxDrain = 10000, 20000
	n, player, err := tracegen.NewNetwork(cfg, tracegen.Water)
	if err != nil {
		t.Fatal(err)
	}
	player.MaxOutstanding = 1
	n.Run()
	if player.Transactions == 0 || !n.Quiescent() {
		t.Fatalf("stalled player broke: txns=%d quiescent=%v", player.Transactions, n.Quiescent())
	}
}
