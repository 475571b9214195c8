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
	"repro/internal/schemes"
	"repro/internal/telemetry"
)

func main() {
	var (
		schemeName = flag.String("scheme", "all", "scheme to check: SA, DR, PR, or all")
		workload   = flag.String("workload", "crossing", "scripted workload: single, crossing, entangled, or gridlock (true-deadlock space)")
		detector   = flag.String("detector", "threshold", "recovery trigger to check: threshold or probe")
		bugName    = flag.String("bug", "", "injected detector bug: suppress-detect, forge-detect, suppress-probe, or forge-probe")
		forge      = flag.Int64("forge-period", 10, "forged firing period in cycles (with -bug forge-detect or forge-probe)")
		strict     = flag.Bool("strict", true, "arm the no-false-detection property")
		delay      = flag.Bool("delay-rescue", true, "branch on deferring recovery at the detection handoff")
		window     = flag.Int64("window", 4, "injection release window in cycles")
		rotations  = flag.Int("rotations", 2, "round-robin rotations branched at contended cycles")
		maxCycles  = flag.Int64("max-cycles", 2000, "per-path cycle budget")
		maxStates  = flag.Int("max-states", 500000, "visited-state budget")
		outPath    = flag.String("o", "", "counterexample output path (default counterexample-<scheme>.json)")
		progress   = flag.Bool("progress", false, "print live progress to stderr")
		version    = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(telemetry.VersionString("modelcheck"))
		return
	}

	// The entangled workload exists to make endpoint detection fire, and it
	// fires the way the paper's heuristic does: on queue-blocked streaks,
	// which congestion produces without a true knot. Strict mode would flag
	// every such (deliberately conservative) detection, so it only defaults
	// on for the workloads where detection should never trigger.
	strictSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "strict" {
			strictSet = true
		}
	})
	if *workload == "entangled" && !strictSet {
		*strict = false
		fmt.Fprintln(os.Stderr, "modelcheck: entangled workload: strict no-false-detection check disabled (detection is congestion-triggered here by design; force with -strict=true)")
	}
	// The gridlock space needs tight nondeterminism: under wider adversarial
	// schedules PR's rescue thrashes without converging (with any detector)
	// and every path ends in unrecovered-deadlock instead of the property
	// under test. Narrow whatever the user did not set explicitly.
	if *workload == "gridlock" {
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["window"] {
			*window = 1
		}
		if !set["rotations"] {
			*rotations = 1
		}
		if !set["delay-rescue"] {
			*delay = false
		}
		if !set["strict"] {
			*strict = false
		}
		fmt.Fprintf(os.Stderr, "modelcheck: gridlock workload: window=%d rotations=%d delay-rescue=%v strict=%v (true-deadlock space; wide schedules livelock PR's rescue)\n",
			*window, *rotations, *delay, *strict)
	}

	var kinds []schemes.Kind
	all := strings.EqualFold(*schemeName, "all")
	if all {
		kinds = []schemes.Kind{schemes.SA, schemes.DR, schemes.PR}
	} else {
		k, err := schemes.KindByName(*schemeName)
		fatal(err)
		kinds = []schemes.Kind{k}
	}
	switch *detector {
	case "threshold", "probe":
	default:
		fatal(fmt.Errorf("unknown detector %q (want threshold or probe)", *detector))
	}
	var bug mc.Bug
	switch *bugName {
	case "":
	case string(mc.BugSuppressDetect):
		bug = mc.BugSuppressDetect
	case string(mc.BugForgeDetect):
		bug = mc.BugForgeDetect
	case string(mc.BugSuppressProbe):
		bug = mc.BugSuppressProbe
	case string(mc.BugForgeProbe):
		bug = mc.BugForgeProbe
	default:
		fatal(fmt.Errorf("unknown bug %q (want suppress-detect, forge-detect, suppress-probe, or forge-probe)", *bugName))
	}
	if (bug == mc.BugSuppressProbe || bug == mc.BugForgeProbe) && *detector != "probe" {
		fatal(fmt.Errorf("bug %q targets the probe engine: add -detector=probe", bug))
	}

	exitCode := 0
	for _, kind := range kinds {
		if *detector == "probe" && (kind == schemes.SA || kind == schemes.SQ) {
			fmt.Printf("%s: skipped: the probe detector needs a recovery path to trigger, which avoidance schemes do not have\n", kind)
			continue
		}
		opt := mc.Options{
			MaxCycles:    *maxCycles,
			MaxStates:    *maxStates,
			InjectWindow: *window,
			Rotations:    *rotations,
			DelayRescue:  *delay,
			StrictDetect: *strict,
			Bug:          bug,
			ForgePeriod:  *forge,
		}
		switch *workload {
		case "single":
			opt.Net = mc.TinyConfig(kind)
			opt.Txns = mc.SingleTxn(opt.Net)
		case "crossing":
			opt.Net = mc.TinyConfig(kind)
			opt.Txns = mc.CrossingTxns(opt.Net)
		case "entangled":
			opt.Net = mc.EntangledConfig(kind)
			opt.Txns = mc.EntangledTxns()
		case "gridlock":
			opt.Net = mc.GridlockConfig(kind)
			opt.Txns = mc.EntangledTxns()
		default:
			fatal(fmt.Errorf("unknown workload %q (want single, crossing, entangled, or gridlock)", *workload))
		}
		opt.Net.Detector = *detector
		if *progress {
			opt.Progress = func(p mc.ProgressInfo) {
				fmt.Fprintf(os.Stderr, "\rmodelcheck %s: states=%d transitions=%d frontier=%d depth=%d   ",
					kind, p.States, p.Transitions, p.Frontier, p.Depth)
			}
		}

		e, err := mc.New(opt)
		if err != nil && all && *workload == "gridlock" && kind == schemes.SA {
			// The gridlock space is built to deadlock, outside strict
			// avoidance's validity envelope; asked for by name it is an error.
			fmt.Printf("%s: skipped: %v\n", kind, err)
			continue
		}
		fatal(err)
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
			kind, opt.Net.Pattern.Name, *workload, status,
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
	os.Exit(exitCode)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "modelcheck:", err)
		os.Exit(1)
	}
}
