// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 4): Table 1 and Figure 6 from trace-driven runs, the
// Section 4.2.2 deadlock characterization, the Burton-Normal-Form
// latency/throughput figures 8-10 across virtual-channel counts, the queue
// allocation ablation of Figure 11, and the deadlock-frequency
// characterization. Each experiment prints a self-describing text report
// and returns structured series for further processing.
package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/netiface"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/schemes"
	"repro/internal/stats"
)

// Scale selects run lengths: Full matches the paper (30,000 measured cycles
// beyond warmup per point), Quick is for interactive use, Smoke for CI.
type Scale struct {
	Name     string
	Warmup   int64
	Measure  int64
	MaxDrain int64
	// Rates is the applied-load ladder for BNF sweeps (request-generation
	// probability per node per cycle).
	Rates []float64
	// TraceCycles is the trace length generated for application runs.
	TraceCycles int64
}

// Canonical scales.
var (
	Full = Scale{
		Name: "full", Warmup: 5000, Measure: 30000, MaxDrain: 30000,
		Rates: []float64{0.001, 0.002, 0.004, 0.006, 0.008, 0.010, 0.012,
			0.014, 0.016, 0.018, 0.020, 0.024, 0.028},
		TraceCycles: 120000,
	}
	Quick = Scale{
		Name: "quick", Warmup: 2000, Measure: 8000, MaxDrain: 10000,
		Rates: []float64{0.002, 0.005, 0.008, 0.010, 0.012, 0.014, 0.016,
			0.020, 0.024},
		TraceCycles: 50000,
	}
	Smoke = Scale{
		Name: "smoke", Warmup: 500, Measure: 2500, MaxDrain: 4000,
		Rates:       []float64{0.004, 0.010, 0.016},
		TraceCycles: 15000,
	}
)

// ScaleByName resolves a scale.
func ScaleByName(name string) (Scale, error) {
	for _, s := range []Scale{Full, Quick, Smoke} {
		if s.Name == name {
			return s, nil
		}
	}
	return Scale{}, fmt.Errorf("experiments: unknown scale %q", name)
}

// baseConfig returns the Table 2 defaults at a given scale.
func baseConfig(s Scale) network.Config {
	cfg := network.DefaultConfig()
	cfg.Warmup = s.Warmup
	cfg.Measure = s.Measure
	cfg.MaxDrain = s.MaxDrain
	return cfg
}

// NetworkHook, when non-nil, is applied to every network an experiment
// builds, right after construction and before the run. cmd/experiments uses
// it to attach the runtime invariant checker to entire sweeps (-check).
// Sweeps run points in parallel, so the hook must be safe to call
// concurrently (per-network attachments are).
var NetworkHook func(*network.Network)

// newNet builds a network and applies NetworkHook; every experiment
// constructs its simulation points through here.
func newNet(cfg network.Config) (*network.Network, error) {
	n, err := network.New(cfg)
	if err != nil {
		return nil, err
	}
	if NetworkHook != nil {
		NetworkHook(n)
	}
	return n, nil
}

// runPoint executes one configuration and converts its statistics to a BNF
// point, honouring ctx cancellation mid-run.
func runPoint(ctx context.Context, cfg network.Config) (stats.Point, error) {
	n, err := newNet(cfg)
	if err != nil {
		return stats.Point{}, err
	}
	if err := n.RunContext(ctx); err != nil {
		return stats.Point{}, err
	}
	return stats.Point{Applied: cfg.Rate, Summary: n.Stats.Summary(n.Quiescent())}, nil
}

// Sweep produces one BNF series for a scheme configuration, walking the
// applied-load ladder "up to a point just beyond saturation" (Section
// 4.3.1): the sweep stops after throughput drops below its running maximum,
// keeping that first beyond-saturation point.
//
// With Parallelism() > 1 every rate point runs concurrently (speculating
// past the stop point) and the stop rule is applied to the gathered ladder,
// which yields exactly the points the serial walk would have kept; with one
// worker the lazy serial walk below avoids the speculative runs.
func Sweep(ctx context.Context, cfg network.Config, rates []float64, name string) (stats.Series, error) {
	if Parallelism() > 1 {
		out, err := runSweeps(ctx, []sweepJob{{cfg: cfg, name: name}}, rates)
		if err != nil {
			return stats.Series{Name: name}, err
		}
		return out[0], nil
	}
	series := stats.Series{Name: name}
	best := 0.0
	for _, r := range rates {
		cfg.Rate = r
		p, err := runPoint(ctx, cfg)
		if err != nil {
			return series, err
		}
		series.Points = append(series.Points, p)
		if p.Throughput > best {
			best = p.Throughput
		} else if p.Throughput < 0.97*best {
			break
		}
	}
	return series, nil
}

// sweepJob is one series-to-be: a configuration whose Rate field is filled
// per ladder point, plus the series name.
type sweepJob struct {
	cfg  network.Config
	name string
}

// runSweeps executes several independent sweeps through one worker pool by
// flattening every (job, rate) pair into a single ordered point list, then
// regrouping and truncating each ladder with the serial stop rule. Flat
// fan-out keeps all workers busy even when individual sweeps have fewer
// points than workers.
func runSweeps(ctx context.Context, jobs []sweepJob, rates []float64) ([]stats.Series, error) {
	workers := Parallelism()
	if workers <= 1 {
		out := make([]stats.Series, len(jobs))
		for i, job := range jobs {
			sr, err := Sweep(ctx, job.cfg, rates, job.name)
			if err != nil {
				return nil, err
			}
			out[i] = sr
		}
		return out, nil
	}
	pts, err := mapOrdered(ctx, workers, len(jobs)*len(rates), func(i int) (stats.Point, error) {
		c := jobs[i/len(rates)].cfg
		c.Rate = rates[i%len(rates)]
		return runPoint(ctx, c)
	})
	if err != nil {
		return nil, err
	}
	out := make([]stats.Series, len(jobs))
	for i, job := range jobs {
		ladder := pts[i*len(rates) : (i+1)*len(rates)]
		out[i] = stats.Series{Name: job.name, Points: truncateAtSaturation(ladder)}
	}
	return out, nil
}

// truncateAtSaturation applies the sweep stop rule to a fully speculated
// ladder: keep points while throughput grows its running maximum, and stop
// at (keeping) the first point below 0.97x that maximum — the prefix the
// serial walk would have produced.
func truncateAtSaturation(pts []stats.Point) []stats.Point {
	best := 0.0
	for i, p := range pts {
		if p.Throughput > best {
			best = p.Throughput
		} else if p.Throughput < 0.97*best {
			return pts[:i+1]
		}
	}
	return pts
}

// schemeLabel names a series like the figures' legends.
func schemeLabel(kind schemes.Kind, qa bool) string {
	if qa {
		return kind.String() + "-QA"
	}
	return kind.String()
}

// FigBNF regenerates one latency-throughput figure: every scheme valid at
// the given VC count, for each listed pattern. Invalid configurations are
// skipped exactly where the paper omits the corresponding curves (SA at 4
// VCs for chains > 2; DR for PAT100).
func FigBNF(ctx context.Context, w io.Writer, s Scale, title string, vcs int, pats []*protocol.Pattern, seed uint64) ([]stats.Series, error) {
	fmt.Fprintf(w, "=== %s (8x8 torus, %d VCs, scale=%s) ===\n", title, vcs, s.Name)
	// Collect every valid (pattern, scheme) sweep up front so the whole
	// figure fans out through one worker pool; omitted-configuration lines
	// are captured in place to keep the report ordering identical to a
	// serial walk.
	type patGroup struct {
		omitted    []string
		start, end int
	}
	var jobs []sweepJob
	groups := make([]patGroup, len(pats))
	for pi, pat := range pats {
		groups[pi].start = len(jobs)
		for _, kind := range []schemes.Kind{schemes.SA, schemes.DR, schemes.PR} {
			cfg := baseConfig(s)
			cfg.Scheme = kind
			cfg.Pattern = pat
			cfg.VCs = vcs
			cfg.Seed = seed
			if err := cfg.Validate(); err != nil {
				groups[pi].omitted = append(groups[pi].omitted,
					fmt.Sprintf("%s/%s: omitted (%v)\n", pat.Name, kind, err))
				continue
			}
			jobs = append(jobs, sweepJob{cfg: cfg, name: fmt.Sprintf("%s/%s", pat.Name, kind)})
		}
		groups[pi].end = len(jobs)
	}
	results, err := runSweeps(ctx, jobs, s.Rates)
	if err != nil {
		return nil, err
	}
	var all []stats.Series
	for pi, pat := range pats {
		for _, line := range groups[pi].omitted {
			fmt.Fprint(w, line)
		}
		series := results[groups[pi].start:groups[pi].end]
		fmt.Fprint(w, stats.FormatBNF(fmt.Sprintf("-- %s --", pat.Name), series))
		fmt.Fprint(w, stats.PlotBNF(fmt.Sprintf("-- %s (BNF plot) --", pat.Name), series, 64, 16, 0))
		all = append(all, series...)
	}
	return all, nil
}

// Fig8 regenerates Figure 8: 4 virtual channels, all five patterns.
func Fig8(ctx context.Context, w io.Writer, s Scale) ([]stats.Series, error) {
	return FigBNF(ctx, w, s, "Figure 8", 4, protocol.Patterns, 8)
}

// Fig9 regenerates Figure 9: 8 virtual channels, all five patterns.
func Fig9(ctx context.Context, w io.Writer, s Scale) ([]stats.Series, error) {
	return FigBNF(ctx, w, s, "Figure 9", 8, protocol.Patterns, 9)
}

// Fig10 regenerates Figure 10: 16 virtual channels; the paper plots
// PAT721/451/271/280 (PAT100 adds nothing at that point).
func Fig10(ctx context.Context, w io.Writer, s Scale) ([]stats.Series, error) {
	return FigBNF(ctx, w, s, "Figure 10", 16,
		[]*protocol.Pattern{protocol.PAT721, protocol.PAT451, protocol.PAT271, protocol.PAT280}, 10)
}

// Fig11 regenerates Figure 11: message-queue allocation ablation at 16 VCs
// with the 4-type PAT271 pattern — SA versus DR and PR with shared(-class)
// queues and with per-type queues (QA).
func Fig11(ctx context.Context, w io.Writer, s Scale) ([]stats.Series, error) {
	fmt.Fprintf(w, "=== Figure 11 (PAT271, 16 VCs, queue allocation, scale=%s) ===\n", s.Name)
	type variant struct {
		kind schemes.Kind
		mode netiface.QueueMode
		qa   bool
	}
	variants := []variant{
		{schemes.SA, -1, false},
		{schemes.DR, -1, false},
		{schemes.DR, netiface.QueuePerType, true},
		{schemes.PR, -1, false},
		{schemes.PR, netiface.QueuePerType, true},
	}
	jobs := make([]sweepJob, 0, len(variants))
	for _, v := range variants {
		cfg := baseConfig(s)
		cfg.Scheme = v.kind
		cfg.Pattern = protocol.PAT271
		cfg.VCs = 16
		cfg.QueueMode = v.mode
		cfg.Seed = 11
		jobs = append(jobs, sweepJob{cfg: cfg, name: schemeLabel(v.kind, v.qa)})
	}
	series, err := runSweeps(ctx, jobs, s.Rates)
	if err != nil {
		return nil, err
	}
	fmt.Fprint(w, stats.FormatBNF("-- PAT271 / 16 VC queue ablation --", series))
	fmt.Fprint(w, stats.PlotBNF("-- PAT271 / 16 VC queue ablation (BNF plot) --", series, 64, 16, 0))
	return series, nil
}

// DeadlockFrequency characterizes how often deadlocks form versus load for
// the recovery schemes (the paper's normalized number of deadlocks,
// Section 4.1), confirming deadlocks are rare until deep saturation.
func DeadlockFrequency(ctx context.Context, w io.Writer, s Scale) error {
	fmt.Fprintf(w, "=== Deadlock frequency vs load (PAT271, 4 VCs, scale=%s) ===\n", s.Name)
	fmt.Fprintf(w, "%-6s %10s %12s %10s %10s %12s\n", "scheme", "applied", "throughput", "recov", "cwg-knots", "norm-dlk")
	kinds := []schemes.Kind{schemes.DR, schemes.PR}
	rows, err := mapOrdered(ctx, Parallelism(), len(kinds)*len(s.Rates), func(i int) (string, error) {
		kind := kinds[i/len(s.Rates)]
		r := s.Rates[i%len(s.Rates)]
		cfg := baseConfig(s)
		cfg.Scheme = kind
		cfg.Pattern = protocol.PAT271
		cfg.VCs = 4
		cfg.Rate = r
		cfg.Seed = 21
		n, err := newNet(cfg)
		if err != nil {
			return "", err
		}
		if err := n.RunContext(ctx); err != nil {
			return "", err
		}
		st := n.Stats
		recov := st.Deflections + st.Rescues
		return fmt.Sprintf("%-6s %10.4f %12.4f %10d %10d %12.6f\n",
			kind, r, st.Throughput(), recov, st.CWGDeadlocks, st.NormalizedDeadlocks()), nil
	})
	if err != nil {
		return err
	}
	for _, row := range rows {
		fmt.Fprint(w, row)
	}
	return nil
}
