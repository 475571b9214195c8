// Command modelcheck exhaustively explores the deadlock-handling schemes on
// tiny networks: it enumerates every schedule the nondeterminism model
// allows (injection timing, arbitration rotation, recovery deferral),
// dedupes states by canonical hash, and checks detection soundness and
// recovery termination against an independent channel-wait-for-graph oracle.
//
// Examples:
//
//	modelcheck                                # all three schemes, crossing workload
//	modelcheck -scheme PR -workload entangled # detection/recovery-exercising space
//	modelcheck -scheme DR -bug forge-detect   # injected bug: expect a counterexample
//	modelcheck -progress -workload entangled  # live state/frontier counters
//	modelcheck -workload gridlock             # true-deadlock space: DR and PR recover
//
// A violation writes its replayable counterexample schedule as JSON (see
// -o) and exits with status 3; replay it with netsim -replay <file>. An
// exploration that hits a state or cycle budget without violating exits
// with status 2; clean exhaustion exits 0.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/mc"
	"repro/internal/network"
	"repro/internal/schemes"
	"repro/internal/telemetry"
)

func main() {
	var (
		schemeName = flag.String("scheme", "all", "scheme to check: SA, DR, PR, or all")
		workload   = flag.String("workload", "crossing", "space to explore: single, crossing, entangled, or gridlock (true-deadlock space); each fixes its own exploration settings")
		detector   = flag.String("detector", network.DetectorThreshold, "recovery trigger to check: threshold or probe")
		bug        = flag.String("bug", "", "injected detector bug: suppress-detect, forge-detect, suppress-probe, or forge-probe")
		forge      = flag.Int64("forge-period", mc.DefaultForgePeriod, "forged firing period in cycles (with -bug forge-detect or forge-probe)")
		maxCycles  = flag.Int64("max-cycles", mc.DefaultMaxCycles, "per-path cycle budget")
		maxStates  = flag.Int("max-states", mc.DefaultMaxStates, "visited-state budget")
		outPath    = flag.String("o", "", "counterexample output path (default counterexample-<scheme>.json)")
		progress   = flag.Bool("progress", false, "print live progress to stderr")
		version    = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(telemetry.VersionString("modelcheck"))
		return
	}

	space, err := mc.SpaceNamed(*workload)
	fatal(err)
	kinds := []schemes.Kind{schemes.SA, schemes.DR, schemes.PR}
	all := strings.EqualFold(*schemeName, "all")
	if !all {
		k, err := schemes.KindByName(*schemeName)
		fatal(err)
		kinds = []schemes.Kind{k}
	}

	exitCode, explored := 0, 0
	for _, kind := range kinds {
		opt := space.Options(kind)
		opt.Net.Detector = *detector
		opt.MaxCycles = *maxCycles
		opt.MaxStates = *maxStates
		opt.Bug = mc.Bug(*bug)
		opt.ForgePeriod = *forge
		// Under -scheme all, a scheme whose network this space cannot
		// configure is skipped with the reason; asked for by name, it is
		// an error.
		if err := opt.Net.Validate(); err != nil && all {
			fmt.Printf("%s: skipped: %v\n", kind, err)
			continue
		}
		if *progress {
			opt.Progress = func(p mc.ProgressInfo) {
				fmt.Fprintf(os.Stderr, "\rmodelcheck %s: states=%d transitions=%d frontier=%d depth=%d   ",
					kind, p.States, p.Transitions, p.Frontier, p.Depth)
			}
		}

		e, err := mc.New(opt)
		fatal(err)
		explored++
		start := time.Now()
		r := e.Run()
		if *progress {
			fmt.Fprintln(os.Stderr)
		}

		status := "exhausted"
		if !r.Complete {
			status = "stopped"
		}
		fmt.Printf("%s %s/%s: %s: %d states, %d transitions, %d accepting paths, %d detections, depth %d (%.2fs)\n",
			kind, opt.Net.Pattern.Name, space.Name, status,
			r.States, r.Transitions, r.Accepts, r.Detections, r.MaxDepth,
			time.Since(start).Seconds())

		if cx := r.Counterexample; cx != nil {
			path := *outPath
			if path == "" {
				path = fmt.Sprintf("counterexample-%s.json", strings.ToLower(kind.String()))
			}
			b, err := cx.Encode()
			fatal(err)
			fatal(os.WriteFile(path, b, 0o644))
			fmt.Printf("%s: VIOLATION %s at cycle %d: %s\n", kind, cx.Violation.Kind, cx.Violation.Cycle, cx.Violation.Detail)
			fmt.Printf("%s: counterexample written to %s (replay with: netsim -replay %s)\n", kind, path, path)
			exitCode = 3
		} else if !r.Complete {
			fmt.Fprintf(os.Stderr, "modelcheck: %s exploration incomplete: state budget %d exhausted\n", kind, *maxStates)
			if exitCode == 0 {
				exitCode = 2
			}
		}
	}
	if explored == 0 {
		fatal(fmt.Errorf("every scheme was skipped"))
	}
	os.Exit(exitCode)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "modelcheck:", err)
		os.Exit(1)
	}
}
