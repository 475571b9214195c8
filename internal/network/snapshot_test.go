package network

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/protocol"
	"repro/internal/schemes"
	"repro/internal/sim"
)

// runToEnd steps the network through its remaining phases exactly the way
// Run does, so a restored network and an uninterrupted one traverse the same
// loop.
func runToEnd(n *Network) {
	for !n.Clock.Done() {
		n.Step()
		if n.Clock.Phase() == sim.PhaseDrain && n.Quiescent() {
			break
		}
	}
}

// TestSnapshotRoundTrip snapshots each scheme mid-run at randomized cycles,
// finishes the run, then restores and re-runs the tail — twice, proving the
// snapshot survives repeated restores — and requires the full end-state
// (every VC, NI queue, transaction, RNG stream, and statistic) to be
// identical to the uninterrupted run's.
func TestSnapshotRoundTrip(t *testing.T) {
	cases := []struct {
		kind schemes.Kind
		pat  *protocol.Pattern
	}{
		{schemes.SA, protocol.PAT100},
		{schemes.DR, protocol.PAT280},
		{schemes.AB, protocol.PAT280},
		{schemes.PR, protocol.PAT100},
	}
	rng := rand.New(rand.NewSource(42))
	for _, tc := range cases {
		t.Run(tc.kind.String(), func(t *testing.T) {
			cfg := smallConfig(tc.kind, tc.pat, 4, 0.004)
			cfg.Warmup = 200
			cfg.Measure = 1200
			cfg.MaxDrain = 6000
			sawLive := false
			for trial := 0; trial < 3; trial++ {
				snapCycle := int64(50 + rng.Intn(int(cfg.Warmup+cfg.Measure-100)))
				n := mustNet(t, cfg)
				n.RunCycles(snapCycle)
				snap := n.Snapshot()
				if n.Table.Len() > 0 {
					sawLive = true
				}
				runToEnd(n)
				want := n.Snapshot()
				wantDelivered, wantEnd := n.Stats.DeliveredMsgs, n.Clock.Now()

				for pass := 0; pass < 2; pass++ {
					n.Restore(snap)
					if got := n.Clock.Now(); got != snapCycle {
						t.Fatalf("restore set cycle %d, want %d", got, snapCycle)
					}
					runToEnd(n)
					got := n.Snapshot()
					if !slices.Equal(got.data, want.data) {
						t.Fatalf("trial %d pass %d: restored run diverged from uninterrupted run (snap at cycle %d): delivered %d vs %d, end cycle %d vs %d",
							trial, pass, snapCycle, n.Stats.DeliveredMsgs, wantDelivered,
							n.Clock.Now(), wantEnd)
					}
				}
			}
			if !sawLive {
				t.Fatal("every snapshot was quiescent; the round trip proved nothing — raise the rate")
			}
		})
	}
}

// TestSnapshotIsSideEffectFree runs two identical networks, snapshotting one
// of them repeatedly mid-run, and requires both to finish with identical
// statistics: capturing state must not perturb the captured run.
func TestSnapshotIsSideEffectFree(t *testing.T) {
	cfg := smallConfig(schemes.PR, protocol.PAT100, 4, 0.004)
	cfg.Warmup = 200
	cfg.Measure = 1000
	cfg.MaxDrain = 6000

	plain := mustNet(t, cfg)
	plain.Run()

	snapped := mustNet(t, cfg)
	for !snapped.Clock.Done() {
		if now := snapped.Clock.Now(); now%97 == 0 {
			_ = snapped.Snapshot()
		}
		snapped.Step()
		if snapped.Clock.Phase() == sim.PhaseDrain && snapped.Quiescent() {
			break
		}
	}

	if plain.Stats.DeliveredMsgs != snapped.Stats.DeliveredMsgs ||
		plain.Stats.DeliveredFlits != snapped.Stats.DeliveredFlits ||
		plain.Clock.Now() != snapped.Clock.Now() {
		t.Fatalf("snapshotting perturbed the run: delivered %d/%d flits %d/%d cycle %d/%d",
			plain.Stats.DeliveredMsgs, snapped.Stats.DeliveredMsgs,
			plain.Stats.DeliveredFlits, snapped.Stats.DeliveredFlits,
			plain.Clock.Now(), snapped.Clock.Now())
	}
}

// TestSnapshotImmutableAcrossRestore restores a snapshot, mutates the
// restored run far past the capture point, and verifies a second restore
// still reproduces the original state — the restored run must never alias
// the snapshot's payload objects.
func TestSnapshotImmutableAcrossRestore(t *testing.T) {
	cfg := smallConfig(schemes.DR, protocol.PAT280, 4, 0.004)
	cfg.Warmup = 200
	cfg.Measure = 800
	cfg.MaxDrain = 6000
	n := mustNet(t, cfg)
	n.RunCycles(300)
	snap := n.Snapshot()

	n.Restore(snap)
	first := n.Snapshot()
	n.RunCycles(400) // mutate the restored run's live objects

	n.Restore(snap)
	second := n.Snapshot()
	if !slices.Equal(first.data, second.data) {
		t.Fatal("snapshot state changed after a restored run mutated its clones")
	}
}

// TestRestoreRejectsWrongShape: a snapshot restores only into a network of the
// shape it was taken from. Anything else — another radix, another detector,
// and so another set of fields behind the same words — must panic naming both
// shapes before a single field is written, not restore a truncated or shifted
// state (the detector alone used to check, and only the length of its own
// part).
func TestRestoreRejectsWrongShape(t *testing.T) {
	base := smallConfig(schemes.PR, protocol.PAT271, 4, 0.01)
	narrow, probe := base, base
	narrow.Radix = []int{4, 2}
	probe.Detector = DetectorProbe
	src := mustNet(t, base)
	src.RunCycles(300)
	snap := src.Snapshot()
	mustNet(t, base).Restore(snap) // the same shape in another instance restores

	for name, cfg := range map[string]Config{"4x4 into 4x2": narrow, "threshold into probe": probe} {
		dst := mustNet(t, cfg)
		dst.RunCycles(100)
		before := dst.Snapshot()
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, snap.shape) || !strings.Contains(msg, before.shape) || snap.shape == before.shape {
					t.Fatalf("%s: Restore panicked with %q, want both shapes named", name, msg)
				}
			}()
			dst.Restore(snap)
		}()
		if after := dst.Snapshot(); !slices.Equal(after.data, before.data) {
			t.Fatalf("%s: the refused Restore wrote to the network", name)
		}
	}
}
