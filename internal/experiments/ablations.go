package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/message"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/schemes"
)

// ablationRow runs one configuration and prints a uniform result row.
func ablationRow(ctx context.Context, w io.Writer, label string, cfg network.Config) error {
	n, err := newNet(cfg)
	if err != nil {
		return err
	}
	if err := n.RunContext(ctx); err != nil {
		return err
	}
	s := n.Stats
	fmt.Fprintf(w, "%-28s %10.4f %10.1f %8d %8d %8d\n",
		label, s.Throughput(), s.AvgLatency(), s.Deflections, s.Rescues, s.CWGDeadlocks)
	return nil
}

func ablationHeader(w io.Writer, title string) {
	fmt.Fprintf(w, "--- %s ---\n", title)
	fmt.Fprintf(w, "%-28s %10s %10s %8s %8s %8s\n", "config", "thruput", "latency", "deflect", "rescue", "knots")
}

// AblateThreshold studies the endpoint detection threshold (the paper
// assumes 25 cycles, matching the CWG detector's average detection time):
// eager thresholds recover more often than necessary, lazy ones let
// deadlocks linger.
func AblateThreshold(ctx context.Context, w io.Writer, s Scale) error {
	ablationHeader(w, "detection threshold (PR, PAT271, 4 VCs, at saturation)")
	for _, thr := range []int{5, 25, 100, 400} {
		cfg := baseConfig(s)
		cfg.Scheme = schemes.PR
		cfg.Pattern = protocol.PAT271
		cfg.VCs = 4
		cfg.Rate = 0.012
		cfg.DetectThreshold = thr
		cfg.RouterTimeout = thr
		cfg.Seed = 31
		if err := ablationRow(ctx, w, fmt.Sprintf("threshold=%d", thr), cfg); err != nil {
			return err
		}
	}
	return nil
}

// AblateTokenSpeed studies the token's ring-hop time: the paper multiplexes
// the token over network bandwidth (one hop per cycle); slower tokens delay
// captures and stretch recovery.
func AblateTokenSpeed(ctx context.Context, w io.Writer, s Scale) error {
	ablationHeader(w, "token hop time (PR, PAT271, 4 VCs, at saturation)")
	for _, hop := range []int{1, 2, 4, 8} {
		cfg := baseConfig(s)
		cfg.Scheme = schemes.PR
		cfg.Pattern = protocol.PAT271
		cfg.VCs = 4
		cfg.Rate = 0.012
		cfg.TokenHopCycles = hop
		cfg.Seed = 32
		if err := ablationRow(ctx, w, fmt.Sprintf("hop=%d cycles", hop), cfg); err != nil {
			return err
		}
	}
	return nil
}

// AblateSAShared studies the reference-[21] SA variant (Section 2.1): all
// channels beyond the per-type escapes shared among types, raising channel
// availability from 1+(C/L-E_r) to 1+(C-E_m).
func AblateSAShared(ctx context.Context, w io.Writer, s Scale) error {
	ablationHeader(w, "SA channel sharing [21] (PAT721)")
	for _, vcs := range []int{8, 16} {
		for _, sharedCh := range []bool{false, true} {
			cfg := baseConfig(s)
			cfg.Scheme = schemes.SA
			cfg.Pattern = protocol.PAT721
			cfg.VCs = vcs
			cfg.SASharedChannels = sharedCh
			cfg.Rate = 0.014
			cfg.Seed = 33
			label := fmt.Sprintf("%d VCs partitioned", vcs)
			if sharedCh {
				label = fmt.Sprintf("%d VCs shared-adaptive", vcs)
			}
			if err := ablationRow(ctx, w, label, cfg); err != nil {
				return err
			}
		}
	}
	return nil
}

// AblateVC64 checks the paper's remark that results for 64 virtual channels
// do not differ significantly from 16.
func AblateVC64(ctx context.Context, w io.Writer, s Scale) error {
	ablationHeader(w, "16 vs 64 virtual channels (PAT271)")
	for _, kind := range []schemes.Kind{schemes.SA, schemes.DR, schemes.PR} {
		for _, vcs := range []int{16, 64} {
			cfg := baseConfig(s)
			cfg.Scheme = kind
			cfg.Pattern = protocol.PAT271
			cfg.VCs = vcs
			cfg.Rate = 0.012
			cfg.Seed = 34
			if err := ablationRow(ctx, w, fmt.Sprintf("%s %d VCs", kind, vcs), cfg); err != nil {
				return err
			}
		}
	}
	return nil
}

// AblateBristling studies bristling at constant endpoint count (64
// processors as 8x8 b=1, 4x8 b=2, 4x4 b=4): fewer routers concentrate
// traffic on fewer links.
func AblateBristling(ctx context.Context, w io.Writer, s Scale) error {
	ablationHeader(w, "bristling factor at 64 endpoints (PR, PAT271, 4 VCs)")
	shapes := []struct {
		radix []int
		b     int
	}{
		{[]int{8, 8}, 1},
		{[]int{4, 8}, 2},
		{[]int{4, 4}, 4},
	}
	for _, sh := range shapes {
		cfg := baseConfig(s)
		cfg.Scheme = schemes.PR
		cfg.Pattern = protocol.PAT271
		cfg.VCs = 4
		cfg.Radix = sh.radix
		cfg.Bristling = sh.b
		// Bristling concentrates the same per-endpoint load on fewer
		// links; keep all three shapes below their saturation points.
		cfg.Rate = 0.005
		cfg.Seed = 35
		if err := ablationRow(ctx, w, fmt.Sprintf("%dx%d b=%d", sh.radix[0], sh.radix[1], sh.b), cfg); err != nil {
			return err
		}
	}
	return nil
}

// fanoutPattern builds a pattern whose chain-3 invalidations fan out to k
// sharers (the paper's experiments assume one sharer; "more sharers could be
// modeled with the effect of increasing the network load").
func fanoutPattern(k int) *protocol.Pattern {
	inv := &protocol.Template{Name: fmt.Sprintf("inv-fan%d", k), Steps: []protocol.Step{
		{Type: message.M1, Dest: protocol.RoleHome},
		{Type: message.M2, Dest: protocol.RoleThird, Fanout: k},
		{Type: message.M4, Dest: protocol.RoleRequester},
	}}
	return &protocol.Pattern{
		Name:      fmt.Sprintf("PATFAN%d", k),
		Style:     protocol.StyleS1,
		Templates: []*protocol.Template{protocol.Chain2, inv},
		Weights:   []float64{0.3, 0.7},
	}
}

// AblateFanout studies multi-sharer invalidations (Appendix Case 4: the
// token is reused to deliver each of several subordinates).
func AblateFanout(ctx context.Context, w io.Writer, s Scale) error {
	ablationHeader(w, "invalidation fanout (PR, 4 VCs, 70% invalidations)")
	for _, k := range []int{1, 2, 4} {
		cfg := baseConfig(s)
		cfg.Scheme = schemes.PR
		cfg.Pattern = fanoutPattern(k)
		cfg.VCs = 4
		// Wider fanouts multiply the per-transaction traffic; scale the
		// request rate so every width stays below saturation.
		cfg.Rate = 0.012 / float64(k+1)
		cfg.Seed = 36
		if err := ablationRow(ctx, w, fmt.Sprintf("fanout=%d", k), cfg); err != nil {
			return err
		}
	}
	return nil
}

// AblateChainLength isolates dependency-chain length: pure chain-2, chain-3
// and chain-4 workloads under DR and PR at 8 VCs.
func AblateChainLength(ctx context.Context, w io.Writer, s Scale) error {
	ablationHeader(w, "dependency chain length (8 VCs)")
	pats := []*protocol.Pattern{
		{Name: "CHAIN2", Style: protocol.StyleS1, Templates: []*protocol.Template{protocol.Chain2}, Weights: []float64{1}},
		{Name: "CHAIN3", Style: protocol.StyleS1, Templates: []*protocol.Template{protocol.Chain3S1}, Weights: []float64{1}},
		{Name: "CHAIN4", Style: protocol.StyleS1, Templates: []*protocol.Template{protocol.Chain4S1}, Weights: []float64{1}},
	}
	for _, pat := range pats {
		for _, kind := range []schemes.Kind{schemes.DR, schemes.PR} {
			cfg := baseConfig(s)
			cfg.Scheme = kind
			cfg.Pattern = pat
			cfg.VCs = 8
			cfg.Rate = 0.010
			cfg.Seed = 37
			label := fmt.Sprintf("%s %s", pat.Name, kind)
			if err := cfg.Validate(); err != nil {
				fmt.Fprintf(w, "%-28s omitted (%v)\n", label, err)
				continue
			}
			if err := ablationRow(ctx, w, label, cfg); err != nil {
				return err
			}
		}
	}
	return nil
}

// AblateSufficientQueues compares the paper's two strict-avoidance
// techniques head to head: SQ buys freedom from partitioning with O(P x M)
// queue storage (here 64 x 16 = 1024 message slots per queue), while PR gets
// comparable throughput from ordinary 16-entry queues plus the recovery
// lane.
func AblateSufficientQueues(ctx context.Context, w io.Writer, s Scale) error {
	ablationHeader(w, "sufficient queues vs recovery (PAT271, 4 VCs)")
	type variant struct {
		kind schemes.Kind
		cap  int
	}
	endpoints := 64
	for _, v := range []variant{
		{schemes.SQ, endpoints * 16},
		{schemes.PR, 16},
		{schemes.DR, 16},
	} {
		cfg := baseConfig(s)
		cfg.Scheme = v.kind
		cfg.Pattern = protocol.PAT271
		cfg.VCs = 4
		cfg.QueueCap = v.cap
		cfg.Rate = 0.012
		cfg.Seed = 38
		label := fmt.Sprintf("%s queue=%d msgs", v.kind, v.cap)
		if err := ablationRow(ctx, w, label, cfg); err != nil {
			return err
		}
	}
	return nil
}

// AblateRecoveryClass compares all handling classes head to head at the
// Table 2 default of 4 VCs: both avoidance flavors (SA where configurable,
// SQ with its O(P x M) queues), the two message-count-increasing recovery
// classes the paper names (deflective DR, regressive AB), and the proposed
// progressive PR. Section 2.2's argument is visible directly: recovery
// classes that add messages per resolved deadlock degrade as load grows;
// progressive recovery does not.
func AblateRecoveryClass(ctx context.Context, w io.Writer, s Scale) error {
	ablationHeader(w, "recovery class comparison (PAT271, 4 VCs)")
	for _, rate := range []float64{0.008, 0.010, 0.012, 0.014} {
		for _, kind := range []schemes.Kind{schemes.SQ, schemes.DR, schemes.AB, schemes.PR} {
			cfg := baseConfig(s)
			cfg.Scheme = kind
			cfg.Pattern = protocol.PAT271
			cfg.VCs = 4
			cfg.Rate = rate
			cfg.Seed = 39
			if kind == schemes.SQ {
				cfg.QueueCap = 64 * cfg.MaxOutstanding
			}
			label := fmt.Sprintf("%s rate=%.3f", kind, rate)
			if err := ablationRow(ctx, w, label, cfg); err != nil {
				return err
			}
		}
	}
	return nil
}

// AblateMesh compares torus and mesh networks at 4 VCs: a mesh's escape
// subnetworks need only one virtual channel (no datelines), so strict
// avoidance becomes configurable for 4-type protocols where the torus
// version cannot exist — at the cost of losing the wraparound bandwidth and
// path diversity.
func AblateMesh(ctx context.Context, w io.Writer, s Scale) error {
	ablationHeader(w, "torus vs mesh (PAT721, 4 VCs)")
	for _, mesh := range []bool{false, true} {
		for _, kind := range []schemes.Kind{schemes.SA, schemes.DR, schemes.PR} {
			cfg := baseConfig(s)
			cfg.Scheme = kind
			cfg.Pattern = protocol.PAT721
			cfg.VCs = 4
			cfg.Mesh = mesh
			cfg.Rate = 0.010
			cfg.Seed = 40
			shape := "torus"
			if mesh {
				shape = "mesh"
			}
			label := fmt.Sprintf("%s %s", shape, kind)
			n, err := newNet(cfg)
			if err != nil {
				fmt.Fprintf(w, "%-28s omitted (%v)\n", label, err)
				continue
			}
			if err := n.RunContext(ctx); err != nil {
				return err
			}
			st := n.Stats
			fmt.Fprintf(w, "%-28s %10.4f %10.1f %8d %8d %8d\n",
				label, st.Throughput(), st.AvgLatency(), st.Deflections, st.Rescues, st.CWGDeadlocks)
		}
	}
	return nil
}

// Ablations runs every design-choice study.
func Ablations(ctx context.Context, w io.Writer, s Scale) error {
	fmt.Fprintf(w, "=== Ablations (scale=%s) ===\n", s.Name)
	for _, f := range []func(context.Context, io.Writer, Scale) error{
		AblateThreshold, AblateTokenSpeed, AblateSAShared,
		AblateVC64, AblateBristling, AblateFanout, AblateChainLength,
		AblateSufficientQueues, AblateRecoveryClass, AblateMesh,
	} {
		if err := f(ctx, w, s); err != nil {
			return err
		}
	}
	return nil
}
