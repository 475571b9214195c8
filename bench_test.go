package repro

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, each running a reduced-scale version of the corresponding
// experiment and reporting the figure's headline quantity as a custom
// metric, plus microbenchmarks of paths the benchmark in bench/ does not
// time. Regenerating the figures at paper scale is
// `go run ./cmd/experiments -scale full all`; these benches exist so
// `go test -bench=.` exercises every experiment path. The engine itself is
// timed by bench/run.sh; the one cycle benchmark left here only compares
// observing a run against not observing it.

import (
	"context"
	"io"
	"testing"

	"repro/internal/check"
	"repro/internal/coherence"
	"repro/internal/experiments"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tracegen"
)

// benchScale is even smaller than Smoke: benchmarks repeat b.N times.
var benchScale = experiments.Scale{
	Name: "bench", Warmup: 300, Measure: 1500, MaxDrain: 2500,
	Rates:       []float64{0.006, 0.012},
	TraceCycles: 8000,
}

// benchPoint runs one simulation point and returns delivered throughput.
func benchPoint(b *testing.B, kind schemes.Kind, pat *protocol.Pattern, vcs int, rate float64) float64 {
	b.Helper()
	cfg := network.DefaultConfig()
	cfg.Scheme = kind
	cfg.Pattern = pat
	cfg.VCs = vcs
	cfg.Rate = rate
	cfg.Warmup, cfg.Measure, cfg.MaxDrain = benchScale.Warmup, benchScale.Measure, benchScale.MaxDrain
	n, err := network.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	n.Run()
	return n.Stats.Throughput()
}

// BenchmarkTable1 regenerates Table 1: per-application response-type mixes
// through the MSI directory engine.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Table1(context.Background(), io.Discard, benchScale, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6 regenerates Figure 6's load-rate distribution for one
// application (FFT) through the full trace-driven network.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := RunExperiment(context.Background(), "fig6", benchScale, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceDeadlocks regenerates the Section 4.2.2 characterization
// (trace-driven runs on plain and bristled tori).
func BenchmarkTraceDeadlocks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := RunExperiment(context.Background(), "traces", benchScale, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8 regenerates Figure 8's key comparison at 4 VCs: PR versus DR
// on PAT721 (SA is not configurable, as in the paper). Reports the
// throughput advantage of PR as pr_over_dr.
func BenchmarkFig8(b *testing.B) {
	var sum float64
	valid := 0
	for i := 0; i < b.N; i++ {
		dr := benchPoint(b, schemes.DR, protocol.PAT721, 4, 0.014)
		pr := benchPoint(b, schemes.PR, protocol.PAT721, 4, 0.014)
		if dr > 0 {
			sum += pr / dr
			valid++
		}
	}
	reportRatio(b, "pr_over_dr", sum, valid)
}

// reportRatio reports the mean of a throughput ratio over the iterations
// whose denominator was valid; when every iteration's denominator saturated
// to zero the metric is omitted rather than reported as a misleading 0.0.
func reportRatio(b *testing.B, name string, sum float64, valid int) {
	b.Helper()
	if valid == 0 {
		b.Logf("%s unavailable: denominator throughput was zero in every iteration", name)
		return
	}
	b.ReportMetric(sum/float64(valid), name)
}

// BenchmarkFig9 regenerates Figure 9's key point at 8 VCs: SA saturates
// early for 4-type patterns while DR and PR stay close.
func BenchmarkFig9(b *testing.B) {
	var sum float64
	valid := 0
	for i := 0; i < b.N; i++ {
		sa := benchPoint(b, schemes.SA, protocol.PAT721, 8, 0.014)
		pr := benchPoint(b, schemes.PR, protocol.PAT721, 8, 0.014)
		if pr > 0 {
			sum += sa / pr
			valid++
		}
	}
	reportRatio(b, "sa_over_pr", sum, valid)
}

// BenchmarkFig10 regenerates Figure 10's key point at 16 VCs: with abundant
// channels the schemes converge, with SA slightly ahead of shared-queue PR.
func BenchmarkFig10(b *testing.B) {
	var sum float64
	valid := 0
	for i := 0; i < b.N; i++ {
		sa := benchPoint(b, schemes.SA, protocol.PAT271, 16, 0.016)
		pr := benchPoint(b, schemes.PR, protocol.PAT271, 16, 0.016)
		if pr > 0 {
			sum += sa / pr
			valid++
		}
	}
	reportRatio(b, "sa_over_pr", sum, valid)
}

// BenchmarkFig11 regenerates Figure 11's ablation: PR with per-type queues
// (QA) versus PR with a shared queue at 16 VCs.
func BenchmarkFig11(b *testing.B) {
	var sum float64
	valid := 0
	for i := 0; i < b.N; i++ {
		cfg := network.DefaultConfig()
		cfg.Scheme = schemes.PR
		cfg.Pattern = protocol.PAT271
		cfg.VCs = 16
		cfg.Rate = 0.016
		cfg.Warmup, cfg.Measure, cfg.MaxDrain = benchScale.Warmup, benchScale.Measure, benchScale.MaxDrain
		shared, err := network.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		shared.Run()
		cfg.QueueMode = QueuePerType
		qa, err := network.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		qa.Run()
		if t := shared.Stats.Throughput(); t > 0 {
			sum += qa.Stats.Throughput() / t
			valid++
		}
	}
	reportRatio(b, "qa_over_shared", sum, valid)
}

// BenchmarkDeadlockFrequency regenerates the deadlock-frequency
// characterization: PR at deep saturation with scarce resources, reporting
// normalized deadlocks (recoveries per delivered message).
func BenchmarkDeadlockFrequency(b *testing.B) {
	var normalized float64
	for i := 0; i < b.N; i++ {
		cfg := network.DefaultConfig()
		cfg.Scheme = schemes.PR
		cfg.Pattern = protocol.PAT271
		cfg.VCs = 4
		cfg.Rate = 0.02
		cfg.Warmup, cfg.Measure, cfg.MaxDrain = benchScale.Warmup, benchScale.Measure, benchScale.MaxDrain
		n, err := network.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		n.Run()
		normalized = n.Stats.NormalizedDeadlocks()
	}
	b.ReportMetric(normalized, "norm_deadlocks")
}

// --- microbenchmarks ---

// BenchmarkSimulationCycleTraced bounds the cost of observing a run: one
// full-system cycle of an 8x8 torus under moderate load, plain, with the
// event bus (ring-buffer trace sink) attached, and all-on: the bus, the
// sampler, the episode tracker, the invariant checker and the cycle profiler,
// everything netsim's observability and verification flags attach at once.
// The episode tracker needs the CWG scan, so all-on runs it at the default
// interval where the other two run without; EXPERIMENTS "Cost of observing
// everything" states the overheads and their bounds. The benchmark in bench/
// has no metric for this; the cost of a plain cycle is its network.step_ns,
// and of a scan its deadlock.scan_us.
func BenchmarkSimulationCycleTraced(b *testing.B) {
	for _, mode := range []string{"plain", "traced", "all-on"} {
		b.Run(mode, func(b *testing.B) {
			cfg := network.DefaultConfig()
			cfg.Scheme = schemes.PR
			cfg.Pattern = protocol.PAT271
			cfg.Rate = 0.01
			cfg.Warmup, cfg.Measure, cfg.MaxDrain = 1<<30, 1, 0 // stay in warmup
			if mode != "all-on" {
				cfg.CWGInterval = 0
			}
			n, err := network.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			switch mode {
			case "traced":
				n.AttachObs(obs.NewBus(obs.NewRingSink(1 << 16)))
			case "all-on":
				n.AttachObs(obs.NewBus(obs.NewRingSink(1 << 16)))
				n.AttachSampler(obs.NewSampler(io.Discard, 100, n.Torus.Endpoints(), n.Gauges))
				if err := n.AttachEpisodes(&obs.EpisodeTracker{}); err != nil {
					b.Fatal(err)
				}
				check.Attach(n, check.Options{})
				n.AttachProfiler(telemetry.NewCycleProfiler(1))
			}
			n.RunCycles(2000) // reach steady occupancy
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.Step()
			}
		})
	}
}

// BenchmarkCoherenceAccess measures the MSI engine's access path.
func BenchmarkCoherenceAccess(b *testing.B) {
	sys, err := coherence.New(coherence.DefaultConfig(16))
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := coherence.Read
		if i%3 == 0 {
			op = coherence.Write
		}
		sys.Access(rng.Intn(16), op, uint64(rng.Intn(1<<16))*64)
	}
}

// BenchmarkTraceGeneration measures synthetic trace synthesis.
func BenchmarkTraceGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := tracegen.NewGenerator(tracegen.Radix, 16, uint64(i+1))
		g.Generate(5000)
	}
}

// BenchmarkRNG measures the simulator's random stream.
func BenchmarkRNG(b *testing.B) {
	r := sim.NewRNG(7)
	b.ReportAllocs()
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc += r.Uint64()
	}
	_ = acc
}
