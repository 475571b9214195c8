package core

import (
	"testing"

	"repro/internal/protocol"
	"repro/internal/topology"
)

// lane builds a recovery engine with no network attached: enough for the
// token's ring walk and watchdog, which touch no router or NI until a capture.
func lane(radix []int, hop int) *Rescue {
	return New(Config{
		Torus:          topology.MustTorus(radix, 1),
		Engine:         &protocol.Engine{},
		Table:          protocol.NewTable(),
		TokenHopCycles: hop,
	})
}

func TestTokenTour(t *testing.T) {
	r := lane([]int{4, 4}, 1)
	tor := r.cfg.Torus
	seen := map[topology.NodeID]bool{r.Pos(): true}
	for i := 0; i < tor.Routers(); i++ {
		if !r.stepRing() {
			t.Fatal("TokenHopCycles=1 must arrive every cycle")
		}
		seen[r.Pos()] = true
	}
	if len(seen) != tor.Routers() {
		t.Fatalf("token visited %d routers, want %d", len(seen), tor.Routers())
	}
}

func TestTokenHopCycles(t *testing.T) {
	r := lane([]int{4, 4}, 3)
	arrivals := 0
	for i := 0; i < 9; i++ {
		if r.stepRing() {
			arrivals++
		}
	}
	if arrivals != 3 {
		t.Fatalf("9 cycles at 3 cycles/hop gave %d arrivals, want 3", arrivals)
	}
}

// TestCaptureReleaseCycle: a rescue holds the token where it was captured
// and releases it there, and the ring walk resumes from that router.
func TestCaptureReleaseCycle(t *testing.T) {
	r := lane([]int{2, 2}, 1)
	r.stepRing()
	if r.Active() {
		t.Fatal("fresh token held")
	}
	at := r.Pos()
	r.phase = PhaseTransfer // what a capture at r.pos leaves
	if !r.Active() {
		t.Fatal("a rescue phase does not hold the token")
	}
	r.finish(0)
	if r.Active() || r.Pos() != at || r.Completed != 1 {
		t.Fatalf("release failed: phase=%v pos=%d completed=%d", r.CurrentPhase(), r.Pos(), r.Completed)
	}
	r.stepRing()
	if r.Pos() != r.cfg.Torus.RingNext(at) {
		t.Fatalf("resumed at %d, want %d", r.Pos(), r.cfg.Torus.RingNext(at))
	}
}

func TestBadHopCyclesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("TokenHopCycles=0 did not panic")
		}
	}()
	lane([]int{2, 2}, 0)
}

func TestEpochStartsAtOneAndBumpsOnRegenerate(t *testing.T) {
	r := lane([]int{2, 2}, 1)
	if r.Epoch() != 1 {
		t.Fatalf("fresh epoch = %d, want 1", r.Epoch())
	}
	r.Lose()
	r.Regenerate(2)
	if r.Epoch() != 2 {
		t.Fatalf("epoch after regenerate = %d, want 2", r.Epoch())
	}
	if r.Lost() || r.Pos() != 2 {
		t.Fatalf("regenerate left lost=%v pos=%d", r.Lost(), r.Pos())
	}
}

func TestMaintainRegeneratesAfterTimeout(t *testing.T) {
	r := lane([]int{2, 2}, 1)
	r.SetRegenTimeout(10)
	r.Lose()
	for now := int64(0); now < 9; now++ {
		r.Step(now)
		if !r.Lost() {
			t.Fatalf("regenerated after only %d cycles, timeout is 10", now+1)
		}
	}
	r.Step(9)
	if r.Lost() {
		t.Fatal("not regenerated at the 10-cycle timeout")
	}
	if r.Epoch() != 2 || r.Regenerations != 1 || r.OutageCycles != 10 {
		t.Fatalf("epoch=%d regenerations=%d outage=%d, want 2/1/10",
			r.Epoch(), r.Regenerations, r.OutageCycles)
	}
}

func TestMaintainDisarmedNeverRegenerates(t *testing.T) {
	r := lane([]int{2, 2}, 1)
	r.Lose()
	for now := int64(0); now < 1000; now++ {
		r.Step(now)
	}
	if !r.Lost() {
		t.Fatal("disarmed watchdog regenerated the token")
	}
	if r.OutageCycles != 1000 {
		t.Fatalf("outage accounting = %d, want 1000", r.OutageCycles)
	}
}

func TestResurfaceLiveLossSameEpoch(t *testing.T) {
	r := lane([]int{2, 2}, 1)
	r.Lose()
	if !r.Resurface(3) {
		t.Fatal("resurface of an outstanding loss rejected")
	}
	if r.Lost() || r.Pos() != 3 || r.Epoch() != 1 {
		t.Fatalf("resurface state: lost=%v pos=%d epoch=%d", r.Lost(), r.Pos(), r.Epoch())
	}
	if r.Resurfaces != 1 || r.StaleDiscards != 0 {
		t.Fatalf("counters: resurfaces=%d stale=%d", r.Resurfaces, r.StaleDiscards)
	}
}

func TestResurfaceAfterRegenerationIsStale(t *testing.T) {
	r := lane([]int{2, 2}, 1)
	r.Lose()
	r.Regenerate(0)
	if r.Resurface(3) {
		t.Fatal("stale token copy accepted after regeneration")
	}
	if r.StaleDiscards != 1 {
		t.Fatalf("stale discards = %d, want 1", r.StaleDiscards)
	}
	if r.Pos() != 0 || r.Epoch() != 2 {
		t.Fatalf("stale resurface disturbed the live token: pos=%d epoch=%d", r.Pos(), r.Epoch())
	}
}

func TestLoseResetsWatchdogClock(t *testing.T) {
	r := lane([]int{2, 2}, 1)
	r.SetRegenTimeout(5)
	r.Lose()
	for now := int64(0); now < 4; now++ {
		r.Step(now)
	}
	if !r.Resurface(1) {
		t.Fatal("resurface rejected")
	}
	// A second, later loss must get the full timeout again.
	r.Lose()
	for now := int64(0); now < 4; now++ {
		r.Step(now)
		if !r.Lost() {
			t.Fatal("second loss regenerated early: watchdog clock not reset")
		}
	}
}

func TestSetRegenTimeoutNegativePanics(t *testing.T) {
	r := lane([]int{2, 2}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("negative timeout did not panic")
		}
	}()
	r.SetRegenTimeout(-1)
}

func TestStringer(t *testing.T) {
	r := lane([]int{2, 2}, 1)
	if r.String() == "" {
		t.Fatal("empty string")
	}
	r.phase = PhaseWaitService
	if r.String() == "" {
		t.Fatal("empty string when held")
	}
}

// TestLoseHeldPanics: only a circulating token can be lost; a rescue's token
// travels in end-to-end protected control packets.
func TestLoseHeldPanics(t *testing.T) {
	r := lane([]int{2, 2}, 1)
	r.phase = PhaseReturn
	defer func() {
		if recover() == nil {
			t.Fatal("Lose during a rescue did not panic")
		}
	}()
	r.Lose()
}
