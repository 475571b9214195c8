package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/coherence"
	"repro/internal/network"
	"repro/internal/schemes"
	"repro/internal/stats"
	"repro/internal/tracegen"
)

// Table1 regenerates Table 1: the distribution of home-node response types
// per application, measured by replaying each synthesized trace through the
// MSI directory engine (no network needed for classification), beside the
// paper's, which are the generator's targets.
func Table1(ctx context.Context, w io.Writer, s Scale, seed uint64) error {
	fmt.Fprintln(w, "=== Table 1: response types to request messages (16 processors, MSI) ===")
	fmt.Fprintf(w, "%-8s %28s %28s\n", "", "measured (direct/inval/fwd)", "paper    (direct/inval/fwd)")
	rows, err := mapOrdered(ctx, Parallelism(), len(tracegen.Apps), func(ai int) (string, error) {
		app := tracegen.Apps[ai]
		g := tracegen.NewGenerator(app, 16, seed)
		tr := g.Generate(s.TraceCycles)
		sys, err := coherence.New(coherence.DefaultConfig(16))
		if err != nil {
			return "", err
		}
		for _, r := range tr.Records {
			sys.Access(int(r.CPU), r.Op, r.Addr)
		}
		d, i, f := sys.Mix()
		return fmt.Sprintf("%-8s %9.1f%% %7.1f%% %7.1f%%  %9.1f%% %7.1f%% %7.1f%%\n",
			app.Name, 100*d, 100*i, 100*f, 100*app.Direct, 100*app.Inval, 100*app.Forward), nil
	})
	if err != nil {
		return err
	}
	for _, row := range rows {
		fmt.Fprint(w, row)
	}
	return nil
}

// runTrace drives one application trace through the Section 4.2.1
// trace-driven network — 4 VCs, 16-message queues, optionally bristled down
// from 4x4 to 2x4 or 2x2 — and returns the network plus the per-window
// injected-flit load samples. The paper avoided routing deadlocks with Duato's
// routing; we run the PR configuration so message-dependent deadlocks are
// observable and recoverable, and the CWG observer reports knots.
func runTrace(ctx context.Context, app tracegen.App, s Scale, radix []int, bristling int, seed uint64) (*network.Network, *stats.Histogram, error) {
	cfg := network.DefaultConfig()
	cfg.Radix = radix
	cfg.Bristling = bristling
	cfg.VCs = 4
	cfg.Scheme = schemes.PR
	cfg.Measure = s.TraceCycles
	cfg.MaxDrain = s.MaxDrain
	cfg.Seed = seed
	n, _, err := tracegen.NewNetwork(cfg, app)
	if err != nil {
		return nil, nil, err
	}
	if NetworkHook != nil {
		NetworkHook(n)
	}
	// Sample network load (injected flits/node/cycle) per 100-cycle window
	// for the Figure 6 histogram.
	hist := stats.NewHistogram(0.05, 8)
	var lastFlits int64
	const window = 100
	prev := n.OnCycle // the hook's observers, a checker's sweeps among them
	n.OnCycle = func(now int64) {
		if prev != nil {
			prev(now)
		}
		if now == 0 || now%window != 0 || now > s.TraceCycles {
			return
		}
		cur := n.Stats.InjectedFlits
		load := float64(cur-lastFlits) / float64(n.Torus.Endpoints()) / window
		lastFlits = cur
		hist.Add(load)
	}
	if err := n.RunContext(ctx); err != nil {
		return nil, nil, err
	}
	return n, hist, nil
}

// Fig6 regenerates Figure 6: the load-rate distributions of the four
// benchmark applications on the 4x4 torus.
func Fig6(ctx context.Context, w io.Writer, s Scale, seed uint64) error {
	fmt.Fprintln(w, "=== Figure 6: load rate distributions (4x4 torus, MSI traces) ===")
	blocks, err := mapOrdered(ctx, Parallelism(), len(tracegen.Apps), func(ai int) (string, error) {
		app := tracegen.Apps[ai]
		_, hist, err := runTrace(ctx, app, s, []int{4, 4}, 1, seed)
		if err != nil {
			return "", err
		}
		return hist.Format(app.Name) + fmt.Sprintf(
			"  under 5%% of capacity: %.1f%% of execution time\n",
			100*hist.CumulativeBelow(0.05)), nil
	})
	if err != nil {
		return err
	}
	for _, b := range blocks {
		fmt.Fprint(w, b)
	}
	return nil
}

// TraceDeadlocks regenerates the Section 4.2.2 characterization: each
// application on the 4x4 torus and on bristled 2x4 and 2x2 tori (bristling
// factors 2 and 4), reporting average load and observed message-dependent
// deadlocks. The paper observed none; the CWG knot count checks that.
func TraceDeadlocks(ctx context.Context, w io.Writer, s Scale, seed uint64) error {
	fmt.Fprintln(w, "=== Section 4.2.2: trace-driven deadlock characterization ===")
	fmt.Fprintf(w, "%-8s %-10s %10s %10s %10s %10s\n", "app", "network", "avg-load", "knots", "rescues", "delivered")
	shapes := []struct {
		radix     []int
		bristling int
		label     string
	}{
		{[]int{4, 4}, 1, "4x4 b=1"},
		{[]int{2, 4}, 2, "2x4 b=2"},
		{[]int{2, 2}, 4, "2x2 b=4"},
	}
	rows, err := mapOrdered(ctx, Parallelism(), len(tracegen.Apps)*len(shapes), func(i int) (string, error) {
		app := tracegen.Apps[i/len(shapes)]
		sh := shapes[i%len(shapes)]
		n, _, err := runTrace(ctx, app, s, sh.radix, sh.bristling, seed)
		if err != nil {
			return "", err
		}
		st := n.Stats
		avgLoad := float64(st.InjectedFlits) / float64(n.Torus.Endpoints()) / float64(s.TraceCycles)
		return fmt.Sprintf("%-8s %-10s %9.1f%% %10d %10d %10d\n",
			app.Name, sh.label, 100*avgLoad, st.CWGDeadlocks, st.Rescues, st.DeliveredMsgs), nil
	})
	if err != nil {
		return err
	}
	for _, row := range rows {
		fmt.Fprint(w, row)
	}
	return nil
}
