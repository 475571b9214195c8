// Command experiments regenerates the paper's tables and figures. Each
// experiment prints a self-describing text report to stdout.
//
// Usage:
//
//	experiments [-scale full|quick|smoke] <name>...
//	experiments -scale quick all
//
// Run it without a name for the list of experiments.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/check"
	"repro/internal/experiments"
	"repro/internal/network"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

func main() {
	scaleName := flag.String("scale", "quick", "run scale: full, quick, or smoke")
	csvDir := flag.String("csv", "", "also write per-figure CSV files into this directory")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "simulation points to run in parallel (1 = serial); reports are identical at any value")
	checkOn := flag.Bool("check", false, "attach the runtime invariant checker to every simulation point; the first violation aborts the run")
	version := flag.Bool("version", false, "print version and exit")
	flag.Usage = usage
	flag.Parse()
	if *version {
		fmt.Println(telemetry.VersionString("experiments"))
		return
	}

	if *jobs < 1 {
		fatal(fmt.Errorf("-j must be at least 1, got %d", *jobs))
	}
	scale, err := experiments.ScaleByName(*scaleName)
	if err != nil {
		fatal(err)
	}
	var todo []experiments.Experiment
	switch names := flag.Args(); {
	case len(names) == 1 && names[0] == "all":
		todo = experiments.All
	case len(names) == 0:
		usage()
		os.Exit(2)
	default:
		for _, name := range names {
			e, err := experiments.ByName(name)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n\n", name)
				usage()
				os.Exit(2)
			}
			todo = append(todo, e)
		}
	}

	if *checkOn {
		experiments.NetworkHook = func(n *network.Network) {
			check.Attach(n, check.Options{FailFast: true})
		}
	}
	experiments.SetParallelism(*jobs)

	// Interrupt/SIGTERM cancel the context, which stops the current sweep
	// mid-run via the experiments runner's context plumbing.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	for _, e := range todo {
		start := time.Now()
		if err := run(ctx, e, scale, *csvDir); err != nil {
			fatal(err)
		}
		fmt.Printf("[%s done in %v]\n\n", e.Name, time.Since(start).Round(time.Millisecond))
	}
}

// usage lists the flags and every experiment of the table.
func usage() {
	out := flag.CommandLine.Output()
	fmt.Fprintf(out, "usage: experiments [flags] <name>... | all\n\nexperiments:\n")
	for _, e := range experiments.All {
		fmt.Fprintf(out, "  %-12s %s\n", e.Name, e.Doc)
	}
	fmt.Fprintf(out, "\nflags:\n")
	flag.PrintDefaults()
}

// run executes one experiment; for the BNF figures it optionally also writes
// the raw series as CSV for external plotting.
func run(ctx context.Context, e experiments.Experiment, scale experiments.Scale, csvDir string) error {
	series, err := e.Run(ctx, os.Stdout, scale)
	if err != nil || csvDir == "" || series == nil {
		return err
	}
	if err := os.MkdirAll(csvDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(csvDir, e.Name+".csv")
	if err := os.WriteFile(path, []byte(stats.CSV(series)), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
