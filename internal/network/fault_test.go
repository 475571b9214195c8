package network

import (
	"testing"

	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/schemes"
)

// TestTokenLossRecovery injects the single-point-of-failure the paper warns
// about — losing the circulating token — and verifies the watchdog
// regenerates it and progressive recovery resumes: the system still drains
// completely under deadlock-prone conditions.
func TestTokenLossRecovery(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Radix = []int{4, 4}
	cfg.Scheme = schemes.PR
	cfg.Pattern = protocol.PAT271
	cfg.VCs = 2
	cfg.QueueCap = 4
	cfg.Rate = 0.02
	cfg.Seed = 7
	cfg.Warmup = 0
	cfg.Measure = 10000
	cfg.MaxDrain = 40000
	cfg.TokenRegenTimeout = 200
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Lose the token roughly every 2000 cycles, at the first moment it is
	// actually circulating (it is held most of the time at this load).
	wantLose := false
	n.OnCycle = func(now int64) {
		if now > 0 && now%2000 == 0 {
			wantLose = true
		}
		if wantLose && n.Rescue.CurrentPhase() == core.PhaseCirculating {
			n.Rescue.Lose()
			wantLose = false
		}
	}
	n.Run()
	if n.Rescue.Losses == 0 {
		t.Fatal("fault injection never fired")
	}
	if n.Rescue.Regenerations != n.Rescue.Losses {
		t.Fatalf("losses %d != regenerations %d", n.Rescue.Losses, n.Rescue.Regenerations)
	}
	if !n.Quiescent() {
		t.Fatalf("system did not drain after token losses: %d txns", n.Table.Len())
	}
	if n.Stats.Rescues == 0 {
		t.Fatal("no rescues happened despite deadlock-prone load")
	}
}

// TestTokenLossWithoutWatchdogStallsRecovery: with the watchdog disabled, a
// lost token permanently disables recovery (rescues stop), demonstrating
// why the paper calls for reliable token management.
func TestTokenLossWithoutWatchdogStallsRecovery(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Radix = []int{4, 4}
	cfg.Scheme = schemes.PR
	cfg.Pattern = protocol.PAT271
	cfg.VCs = 2
	cfg.QueueCap = 4
	cfg.Rate = 0.02
	cfg.Seed = 7
	cfg.Warmup = 0
	cfg.Measure = 10000
	cfg.MaxDrain = 5000
	cfg.TokenRegenTimeout = 0
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lostAt := int64(-1)
	var rescuesAtLoss int64
	n.OnCycle = func(now int64) {
		if lostAt < 0 && now >= 1000 && n.Rescue.CurrentPhase() == core.PhaseCirculating {
			n.Rescue.Lose()
			lostAt = now
			rescuesAtLoss = n.Rescue.Completed
		}
	}
	n.Run()
	if lostAt < 0 {
		t.Fatal("never managed to lose the token")
	}
	if n.Rescue.Completed != rescuesAtLoss || n.Rescue.Active() {
		t.Fatalf("rescues continued after token loss: %d -> %d", rescuesAtLoss, n.Rescue.Completed)
	}
}

// TestSASharedChannelsVariant exercises the [21] SA variant end to end and
// confirms its availability gain.
func TestSASharedChannelsVariant(t *testing.T) {
	cfg := smallConfig(schemes.SA, protocol.PAT721, 16, 0.008)
	base, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SASharedChannels = true
	shared, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.Scheme.Availability() != 3 || shared.Scheme.Availability() != 9 {
		t.Fatalf("availability: base %d (want 3), shared %d (want 9)",
			base.Scheme.Availability(), shared.Scheme.Availability())
	}
	shared.Run()
	if shared.Stats.DeliveredMsgs == 0 || !shared.Quiescent() {
		t.Fatal("shared-channel SA run failed")
	}
	if shared.Stats.CWGDeadlocks != 0 || shared.Stats.Rescues != 0 || shared.Stats.Deflections != 0 {
		t.Fatal("shared-channel SA must remain deadlock-free")
	}
}

// TestSASharedChannelsOnlyForSA: the variant is rejected elsewhere.
func TestSASharedChannelsOnlyForSA(t *testing.T) {
	cfg := smallConfig(schemes.PR, protocol.PAT721, 16, 0.008)
	cfg.SASharedChannels = true
	if _, err := New(cfg); err == nil {
		t.Fatal("shared channels accepted for PR")
	}
}

// TestSQNeverDeadlocks stresses the sufficient-queue avoidance scheme: with
// queues sized at endpoints x outstanding, messages always sink and no knot
// may ever form, at the O(P x M) storage cost the paper criticizes.
func TestSQNeverDeadlocks(t *testing.T) {
	cfg := smallConfig(schemes.SQ, protocol.PAT271, 4, 0.02)
	cfg.QueueCap = 16 * 16 // 16 endpoints x 16 outstanding
	cfg.Measure = 5000
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Run()
	if n.Stats.CWGDeadlocks != 0 || n.Stats.Rescues != 0 || n.Stats.Deflections != 0 {
		t.Fatalf("SQ recovery activity: knots=%d rescues=%d deflections=%d",
			n.Stats.CWGDeadlocks, n.Stats.Rescues, n.Stats.Deflections)
	}
	if n.Stats.DeliveredMsgs == 0 || !n.Quiescent() {
		t.Fatal("SQ run failed")
	}
}

// TestSQValidation rejects undersized queues.
func TestSQValidation(t *testing.T) {
	cfg := smallConfig(schemes.SQ, protocol.PAT271, 4, 0.01)
	cfg.QueueCap = 16 // far below 16 endpoints x 16 outstanding
	if _, err := New(cfg); err == nil {
		t.Fatal("undersized SQ queues accepted")
	}
	cfg.QueueCap = 256
	cfg.MaxOutstanding = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("unbounded outstanding accepted for SQ")
	}
}

// TestABRecoversAndDrains exercises regressive (abort-and-retry) recovery
// under deadlock-prone load: NACKs and retries occur, retried messages ride
// the reply network, and everything eventually completes.
func TestABRecoversAndDrains(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scheme = schemes.AB
	cfg.Pattern = protocol.PAT271
	cfg.VCs = 4
	cfg.Rate = 0.014
	cfg.Seed = 5
	cfg.Warmup = 500
	cfg.Measure = 6000
	cfg.MaxDrain = 120000
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Run()
	if n.Stats.Deflections == 0 {
		t.Skip("no NACKs at this seed/load")
	}
	if !n.Quiescent() {
		t.Fatalf("AB did not drain: %d txns", n.Table.Len())
	}
	if n.Stats.TxnCompleted == 0 {
		t.Fatal("nothing completed")
	}
}

// TestABInvalidForChain2 mirrors DR's validity gap.
func TestABInvalidForChain2(t *testing.T) {
	cfg := smallConfig(schemes.AB, protocol.PAT100, 4, 0.01)
	if _, err := New(cfg); err == nil {
		t.Fatal("AB on PAT100 accepted")
	}
}
