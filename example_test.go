package repro_test

import (
	"context"
	"fmt"
	"os"

	"repro"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/tracegen"
)

// ExampleNewSimulator runs one simulation point under the paper's Table 2
// defaults with progressive recovery and prints whether everything drained.
func ExampleNewSimulator() {
	cfg := repro.DefaultConfig()
	cfg.Scheme = repro.PR
	cfg.Pattern = repro.PAT271
	cfg.Rate = 0.004
	cfg.Warmup, cfg.Measure, cfg.MaxDrain = 500, 2500, 5000

	sim, err := repro.NewSimulator(cfg)
	if err != nil {
		fmt.Println("config error:", err)
		return
	}
	res := sim.Run()
	fmt.Println("drained:", res.Drained)
	fmt.Println("deadlocks below saturation:", res.Deadlocks)
	// Output:
	// drained: true
	// deadlocks below saturation: 0
}

// ExampleNewSimulator_invalid shows the configuration gaps the paper's
// figures have: strict avoidance cannot partition 4 virtual channels among
// 4 message types.
func ExampleNewSimulator_invalid() {
	cfg := repro.DefaultConfig()
	cfg.Scheme = repro.SA
	cfg.Pattern = repro.PAT721 // chain lengths up to 4
	cfg.VCs = 4

	_, err := repro.NewSimulator(cfg)
	fmt.Println(err != nil)
	// Output:
	// true
}

// ExamplePattern_typeDistribution reproduces a Table 3 row from the
// transaction-pattern algebra.
func ExamplePattern_typeDistribution() {
	d := repro.PAT271.TypeDistribution()
	fmt.Printf("m1=%.1f%% m2=%.1f%% m3=%.1f%% m4=%.1f%%\n",
		100*d[0], 100*d[1], 100*d[2], 100*d[3])
	// Output:
	// m1=34.5% m2=27.6% m3=3.4% m4=34.5%
}

// Example_quickstart simulates an 8x8 torus CC-NUMA interconnect under the
// paper's default parameters (Table 2) with the proposed progressive recovery
// scheme, and prints the headline statistics.
func Example_quickstart() {
	cfg := repro.DefaultConfig()
	cfg.Scheme = repro.PR      // Extended Disha Sequential
	cfg.Pattern = repro.PAT271 // 20% chain-2, 70% chain-3, 10% chain-4
	cfg.VCs = 4                // scarce virtual channels
	cfg.Rate = 0.010           // requests per node per cycle
	cfg.Warmup, cfg.Measure = 2000, 10000

	sim, err := repro.NewSimulator(cfg)
	if err != nil {
		fmt.Println("config error:", err)
		return
	}
	res := sim.Run()

	fmt.Println("progressive recovery on PAT271, 8x8 torus, 4 VCs:")
	fmt.Printf("  throughput        %.4f flits/node/cycle\n", res.Throughput)
	fmt.Printf("  message latency   %.1f cycles\n", res.AvgLatency)
	fmt.Printf("  txn latency       %.1f cycles\n", res.AvgTxnLatency)
	fmt.Printf("  transactions      %d completed\n", res.Transactions)
	fmt.Printf("  deadlock rescues  %d (normalized %.6f)\n", res.Rescues, res.NormalizedDeadlocks)
	fmt.Printf("  drained cleanly   %v\n", res.Drained)
	// Output:
	// progressive recovery on PAT271, 8x8 torus, 4 VCs:
	//   throughput        0.2873 flits/node/cycle
	//   message latency   35.0 cycles
	//   txn latency       262.9 cycles
	//   transactions      6296 completed
	//   deadlock rescues  0 (normalized 0.000000)
	//   drained cleanly   true
}

// Example_compare reproduces the headline result of the paper in miniature:
// with scarce virtual channels (4 per link) and dependency chains longer than
// two, progressive recovery (PR) sustains substantially more throughput than
// deflective recovery (DR), while strict avoidance (SA) cannot even be
// configured. It sweeps applied load for every configurable scheme on PAT721
// and prints the latency-throughput curves (Figure 8(b) in miniature).
func Example_compare() {
	rates := []float64{0.002, 0.006, 0.010, 0.014, 0.018, 0.022}
	var series []repro.Series

	for _, scheme := range []repro.Scheme{repro.SA, repro.DR, repro.PR} {
		cfg := repro.DefaultConfig()
		cfg.Scheme = scheme
		cfg.Pattern = repro.PAT721
		cfg.VCs = 4
		cfg.Warmup, cfg.Measure, cfg.MaxDrain = 2000, 10000, 10000

		s, err := repro.SweepLoads(context.Background(), cfg, rates, scheme.String())
		if err != nil {
			// SA cannot partition 4 VCs over 4 message types — the same
			// gap appears in the paper's Figure 8.
			fmt.Printf("%s: not configurable at 4 VCs (%v)\n", scheme, err)
			continue
		}
		series = append(series, s)
	}

	repro.FormatSeries("PAT721 on 8x8 torus with 4 VCs (Figure 8(b) in miniature)", series, os.Stdout)

	dr, pr := series[0], series[1]
	gain := (pr.SaturationThroughput() - dr.SaturationThroughput()) / dr.SaturationThroughput()
	fmt.Printf("\nPR saturation throughput exceeds DR by %.0f%% (paper: \"up to 100%% more\")\n", 100*gain)
	// Output:
	// SA: not configurable at 4 VCs (schemes: SA needs >= 2 VCs per message type; 4 VCs over 4 types is insufficient)
	// PAT721 on 8x8 torus with 4 VCs (Figure 8(b) in miniature)
	//   DR (saturation 0.2438 flits/node/cycle)
	//        applied   throughput      latency      p50      p99    txn-lat   deflect    rescue
	//        0.00200      0.05281         18.3       13       49       98.9         0         0
	//        0.00600      0.16208         25.0       18      106      123.5         0         0
	//        0.01000      0.24381        278.3       73     1871      839.9         3         0
	//        0.01400      0.23279        536.8      271     3167     1585.8        52         0
	//   PR (saturation 0.4332 flits/node/cycle)
	//        applied   throughput      latency      p50      p99    txn-lat   deflect    rescue
	//        0.00200      0.05278         19.1       15       52      100.9         0         0
	//        0.00600      0.16224         26.6       24       78      127.3         0         0
	//        0.01000      0.26801         37.2       33      114      169.4         0         0
	//        0.01400      0.37800         69.9       60      237      288.2         0         0
	//        0.01800      0.43321        201.2      175      631      732.3         0        43
	//        0.02200      0.42428        275.4      219     2367     1024.6         0        78
	//
	// PR saturation throughput exceeds DR by 78% (paper: "up to 100% more")
}

// Example_coherence is a trace-driven CC-NUMA run: a Water-like Splash-2
// access trace (heavy write sharing) replayed through the MSI
// full-mapped-directory engine on a 4x4 torus. It reports the response-type
// mix (Table 1), network load, and deadlock observations (Section 4.2.2 found
// none at these loads, and neither does this).
func Example_coherence() {
	cfg := repro.DefaultConfig()
	cfg.Radix = []int{4, 4}
	cfg.Scheme = repro.PR
	cfg.Seed = 42
	cfg.Measure, cfg.MaxDrain = 60000, 20000

	net, player, err := tracegen.NewNetwork(cfg, tracegen.Water)
	if err != nil {
		fmt.Println("config error:", err)
		return
	}
	fmt.Printf("synthesized Water trace: %d accesses on %d cpus\n", len(player.Trace.Records), net.Torus.Endpoints())
	net.Run()

	d, i, f := player.Sys.Mix()
	fmt.Printf("response-type mix (paper Table 1, Water: 15.2%% / 50.1%% / 34.7%%):\n")
	fmt.Printf("  direct reply   %5.1f%%\n  invalidation   %5.1f%%\n  forwarding     %5.1f%%\n", 100*d, 100*i, 100*f)
	fmt.Printf("L1 hits: %d, misses: %d, network transactions: %d\n",
		player.Sys.Counts[coherence.Hit], player.Sys.Misses(), player.Transactions)

	st := net.Stats
	load := float64(st.InjectedFlits) / float64(net.Torus.Endpoints()) / float64(cfg.Measure)
	fmt.Printf("average network load: %.1f%% of capacity\n", 100*load)
	fmt.Printf("message-dependent deadlocks observed: %d (paper: none at application loads)\n", st.CWGDeadlocks)
	fmt.Printf("avg transaction latency: %.1f cycles\n", st.AvgTxnLatency())
	// Output:
	// synthesized Water trace: 754 accesses on 16 cpus
	// response-type mix (paper Table 1, Water: 15.2% / 50.1% / 34.7%):
	//   direct reply    22.4%
	//   invalidation    47.6%
	//   forwarding      30.0%
	// L1 hits: 361, misses: 393, network transactions: 393
	// average network load: 1.6% of capacity
	// message-dependent deadlocks observed: 0 (paper: none at application loads)
	// avg transaction latency: 125.9 cycles
}

// Example_rescue is the anatomy of an Extended Disha Sequential recovery. It
// drives a small network with tiny queues and scarce channels into genuine
// message-dependent deadlock, then traces the token lifecycle — captures,
// recovery-lane transfers, token reuse along the dependency chain, and
// releases — as the progressive recovery engine rescues the system.
func Example_rescue() {
	cfg := repro.DefaultConfig()
	cfg.Radix = []int{4, 4}
	cfg.Scheme = repro.PR
	cfg.Pattern = repro.PAT271
	cfg.VCs = 2      // scarce channels
	cfg.QueueCap = 2 // tiny endpoint queues: couplings bite fast
	cfg.Rate = 0.02  // deep saturation
	cfg.Warmup, cfg.Measure, cfg.MaxDrain = 0, 8000, 30000
	cfg.Seed = 23

	sim, err := repro.NewSimulator(cfg)
	if err != nil {
		fmt.Println("config error:", err)
		return
	}
	net := sim.Network()

	var captures int
	lastPhase := core.PhaseIdle
	net.OnCycle = func(now int64) {
		phase := net.Rescue.CurrentPhase()
		if phase == lastPhase {
			return
		}
		if lastPhase == core.PhaseIdle {
			captures++
			if captures <= 5 {
				fmt.Printf("cycle %5d: token captured at router %d (rescue #%d)\n",
					now, net.Token.Pos(), captures)
			}
		}
		if phase == core.PhaseIdle && captures <= 5 {
			fmt.Printf("cycle %5d: rescue #%d complete, token re-circulates\n", now, captures)
		}
		lastPhase = phase
	}

	res := sim.Run()

	fmt.Printf("after %d measured cycles at deep saturation:\n", cfg.Measure)
	fmt.Printf("  endpoint detections   %d\n", res.DetectEvents)
	fmt.Printf("  token captures        %d\n", net.Token.Captures)
	fmt.Printf("  rescues completed     %d\n", net.Rescue.Completed)
	fmt.Printf("  deepest token reuse   %d frames (subordinate chains, Appendix Cases 3-4)\n", net.Rescue.MaxDepth)
	fmt.Printf("  CWG knots observed    %d\n", res.Deadlocks)
	fmt.Printf("  rescued deliveries    %d messages travelled the DB/DMB lane\n", net.Stats.RescuedDelivered)
	fmt.Printf("  system drained        %v — progressive recovery loses nothing\n", res.Drained)
	// Output:
	// cycle   167: token captured at router 8 (rescue #1)
	// cycle   210: rescue #1 complete, token re-circulates
	// cycle   222: token captured at router 5 (rescue #2)
	// cycle   276: rescue #2 complete, token re-circulates
	// cycle   306: token captured at router 3 (rescue #3)
	// cycle   365: rescue #3 complete, token re-circulates
	// cycle   366: token captured at router 4 (rescue #4)
	// cycle   412: rescue #4 complete, token re-circulates
	// cycle   413: token captured at router 5 (rescue #5)
	// cycle   477: rescue #5 complete, token re-circulates
	// after 8000 measured cycles at deep saturation:
	//   endpoint detections   2241
	//   token captures        215
	//   rescues completed     215
	//   deepest token reuse   3 frames (subordinate chains, Appendix Cases 3-4)
	//   CWG knots observed    52
	//   rescued deliveries    155 messages travelled the DB/DMB lane
	//   system drained        true — progressive recovery loses nothing
}
