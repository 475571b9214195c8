// Command netsim runs a single network simulation point and prints its
// statistics: the flit-level wormhole simulator with a chosen
// message-dependent deadlock handling scheme (SA, DR, or PR), transaction
// pattern, and applied load.
//
// Example:
//
//	netsim -scheme PR -pattern PAT271 -vcs 4 -rate 0.012 -measure 30000
//
// Observability:
//
//	netsim -scheme PR -rate 0.03 -trace run.trace -trace-format chrome
//	netsim -scheme PR -rate 0.03 -metrics-csv run.csv -metrics-window 100
//	netsim -scheme PR -rate 0.03 -episodes
//	netsim -scheme PR -rate 0.03 -profile        # per-phase cycle-time table
//
// Verification:
//
//	netsim -scheme PR -rate 0.03 -check            # runtime invariant checker
//	netsim -scheme PR -rate 0.012 -digest          # delivery-log fingerprint
//
// Fault injection (deterministic plan file, see internal/fault):
//
//	netsim -scheme PR -rate 0.01 -fault-plan plan.json
//
// Counterexample replay (schedules produced by cmd/modelcheck):
//
//	netsim -replay counterexample-pr.json
//
// A drain phase that times out with undelivered messages still prints the
// collected statistics but exits with status 2; invariant violations under
// -check exit with status 3.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro"
	"repro/internal/check"
	"repro/internal/fault"
	"repro/internal/mc"
	"repro/internal/netiface"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/schemes"
	"repro/internal/telemetry"
)

// The flags are package-level so the documentation test can list them.
var (
	schemeName  = flag.String("scheme", "PR", "handling scheme: SA, DR, PR, SQ, or AB")
	patternName = flag.String("pattern", "PAT271", "transaction pattern: PAT100, PAT721, PAT451, PAT271, PAT280")
	radix       = flag.String("radix", "8x8", "torus radix, e.g. 8x8 or 4x4x4")
	mesh        = flag.Bool("mesh", false, "use a mesh (no wraparound links) instead of a torus")
	bristling   = flag.Int("bristling", 1, "processors per router")
	vcs         = flag.Int("vcs", 4, "virtual channels per link")
	flitBuf     = flag.Int("flitbuf", 2, "flit buffers per virtual channel")
	queueCap    = flag.Int("queue", 16, "message queue size")
	queueMode   = flag.String("qmode", "default", "queue allocation: default, shared, class, type")
	service     = flag.Int("service", 40, "message service time in cycles")
	rate        = flag.Float64("rate", 0.01, "request generation probability per node per cycle")
	outstanding = flag.Int("outstanding", 16, "max outstanding transactions per node (0 = unlimited)")
	warmup      = flag.Int64("warmup", 5000, "warmup cycles")
	measure     = flag.Int64("measure", 30000, "measured cycles")
	drain       = flag.Int64("drain", 30000, "max drain cycles")
	seed        = flag.Uint64("seed", 1, "random seed")
	cwg         = flag.Int64("cwg", 50, "CWG scan interval (0 disables)")
	detector    = flag.String("detector", "threshold", "recovery trigger: threshold (endpoint persistence counter) or probe (distributed edge chasing)")

	tracePath    = flag.String("trace", "", "write a structured event trace to this file")
	traceFormat  = flag.String("trace-format", "jsonl", "trace format: jsonl or chrome (chrome://tracing / Perfetto)")
	metricsCSV   = flag.String("metrics-csv", "", "write windowed time-series metrics as CSV to this file")
	metricsWin   = flag.Int64("metrics-window", 100, "metrics sampling window in cycles")
	episodes     = flag.Bool("episodes", false, "record deadlock episodes (needs -cwg > 0) and print them")
	episodesJSON = flag.String("episodes-json", "", "write deadlock episodes as JSONL to this file (implies -episodes)")

	checkOn       = flag.Bool("check", false, "run the runtime invariant checker; violations exit with status 3")
	checkInterval = flag.Int64("check-interval", 64, "cycles between invariant sweeps (with -check)")
	digest        = flag.Bool("digest", false, "print a 64-bit digest of the full delivery log (regression fingerprint)")

	faultPlan = flag.String("fault-plan", "", "inject faults from this JSON plan file (see internal/fault)")

	profile       = flag.Bool("profile", false, "attribute wall time to simulation pipeline phases and print the breakdown")
	profileJSON   = flag.String("profile-json", "", "write the phase breakdown as JSON to this file (implies -profile)")
	profileSample = flag.Int64("profile-sample", 1, "profile every Nth cycle (1 = every cycle)")

	replayPath = flag.String("replay", "", "replay a model-checker counterexample schedule from this JSON file and verify it reproduces")

	version = flag.Bool("version", false, "print version and exit")
)

func main() {
	flag.Parse()
	if *version {
		fmt.Println(telemetry.VersionString("netsim"))
		return
	}
	if *replayPath != "" {
		replay(*replayPath)
		return
	}

	// Only flags that are not Config fields are range-checked here; every
	// other value is copied into the Config, whose Validate (reached through
	// NewSimulator) is the one admission check and names the field at fault.
	if *checkInterval < 1 {
		fatal(fmt.Errorf("-check-interval must be at least 1 cycle, got %d", *checkInterval))
	}
	if *metricsWin < 1 {
		fatal(fmt.Errorf("-metrics-window must be at least 1 cycle, got %d", *metricsWin))
	}

	cfg := repro.DefaultConfig()
	kind, err := schemes.KindByName(*schemeName)
	fatal(err)
	cfg.Scheme = kind
	pat, err := protocol.PatternByName(*patternName)
	fatal(err)
	cfg.Pattern = pat
	cfg.Radix, err = parseRadix(*radix)
	fatal(err)
	cfg.QueueMode, err = netiface.QueueModeByName(*queueMode)
	fatal(err)
	cfg.Mesh = *mesh
	cfg.Bristling = *bristling
	cfg.VCs = *vcs
	cfg.FlitBuf = *flitBuf
	cfg.QueueCap = *queueCap
	cfg.ServiceTime = *service
	cfg.Rate = *rate
	cfg.MaxOutstanding = *outstanding
	cfg.Warmup, cfg.Measure, cfg.MaxDrain = *warmup, *measure, *drain
	cfg.Seed = *seed
	cfg.CWGInterval = *cwg
	cfg.Detector = *detector

	sim, err := repro.NewSimulator(cfg)
	fatal(err)

	// Observability attachments. Files are closed (and stream sinks
	// finalized) after the run, before the process exits.
	net := sim.Network()
	var files []io.Closer
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		fatal(err)
		files = append(files, f)
		switch *traceFormat {
		case "jsonl":
			net.AttachObs(obs.NewBus(obs.NewJSONLSink(f)))
		case "chrome":
			net.AttachObs(obs.NewBus(obs.NewChromeTraceSink(f)))
		default:
			fatal(fmt.Errorf("unknown trace format %q (want jsonl or chrome)", *traceFormat))
		}
	}
	if *metricsCSV != "" {
		f, err := os.Create(*metricsCSV)
		fatal(err)
		files = append(files, f)
		net.AttachSampler(obs.NewSampler(f, *metricsWin, net.Torus.Endpoints(), net.Gauges))
	}
	var tracker *obs.EpisodeTracker
	if *episodes || *episodesJSON != "" {
		tracker = &obs.EpisodeTracker{}
		fatal(net.AttachEpisodes(tracker))
	}

	var checker *check.Checker
	if *checkOn {
		checker = check.Attach(net, check.Options{Interval: *checkInterval})
	}
	var injector *fault.Injector
	if *faultPlan != "" {
		data, err := os.ReadFile(*faultPlan)
		fatal(err)
		plan, err := fault.ParsePlan(data)
		fatal(err)
		injector, err = fault.Attach(net, plan)
		fatal(err)
	}
	var dig *check.Digest
	if *digest {
		dig = check.AttachDigest(net)
	}
	var prof *telemetry.CycleProfiler
	if *profile || *profileJSON != "" {
		if *profileSample < 1 {
			fatal(fmt.Errorf("-profile-sample must be at least 1, got %d", *profileSample))
		}
		prof = telemetry.NewCycleProfiler(*profileSample)
		net.AttachProfiler(prof)
	}

	res := sim.Run()
	if bus := net.Bus(); bus != nil {
		fatal(bus.Close())
		for _, f := range files {
			fatal(f.Close())
		}
	}

	fmt.Printf("config: %s %s on %v torus, %d VCs, rate=%.4f\n", kind, pat.Name, cfg.Radix, cfg.VCs, cfg.Rate)
	fmt.Printf("throughput:            %.4f flits/node/cycle\n", res.Throughput)
	fmt.Printf("avg message latency:   %.1f cycles\n", res.AvgLatency)
	fmt.Printf("latency p50/p95/p99:   %d / %d / %d cycles\n", res.LatencyP50, res.LatencyP95, res.LatencyP99)
	fmt.Printf("avg txn latency:       %.1f cycles\n", res.AvgTxnLatency)
	fmt.Printf("delivered:             %d messages (%d flits)\n", res.DeliveredMessages, res.DeliveredFlits)
	fmt.Printf("transactions:          %d\n", res.Transactions)
	fmt.Printf("detections:            %d\n", res.DetectEvents)
	fmt.Printf("detect latency:        %.1f cycles avg (%d detections dispatched)\n", res.AvgDetectLatency, res.DetectLatencySamples)
	fmt.Printf("deflections:           %d\n", res.Deflections)
	fmt.Printf("rescues:               %d\n", res.Rescues)
	fmt.Printf("CWG knots:             %d (normalized %.6f)\n", res.Deadlocks, res.NormalizedDeadlocks)
	if net.Probe != nil {
		fmt.Printf("probe traffic:         %d launches, %d probes (%d flits), %d declared, %d dropped\n",
			net.Probe.Launched, net.Probe.Issued, net.Probe.FlitsCharged, net.Probe.Declared, net.Probe.Dropped)
	}
	fmt.Printf("drained:               %v\n", res.Drained)

	if tracker != nil {
		eps := tracker.Episodes()
		fmt.Printf("deadlock episodes:     %d", len(eps))
		if d := tracker.Dropped(); d > 0 {
			fmt.Printf(" (+%d dropped)", d)
		}
		fmt.Println()
		if *episodes {
			for _, ep := range eps {
				fmt.Print(ep.Format())
			}
		}
		if *episodesJSON != "" {
			f, err := os.Create(*episodesJSON)
			fatal(err)
			fatal(tracker.WriteJSON(f))
			fatal(f.Close())
		}
	}

	if injector != nil {
		fmt.Println(injector.Report())
	}
	if checker != nil {
		fmt.Printf("invariant sweeps:      %d\n", checker.Checks())
	}
	if dig != nil {
		fmt.Printf("delivery digest:       %s (%d deliveries)\n", dig, dig.Count())
	}
	if prof != nil {
		b := prof.Breakdown()
		fmt.Print(b.Format())
		if *profileJSON != "" {
			f, err := os.Create(*profileJSON)
			fatal(err)
			enc := json.NewEncoder(f)
			enc.SetIndent("", "  ")
			fatal(enc.Encode(b))
			fatal(f.Close())
		}
	}

	// Violations outrank a drain timeout: partial statistics are still
	// meaningful, corrupted ones are not.
	if checker != nil && len(checker.Violations()) > 0 {
		for _, v := range checker.Violations() {
			fmt.Fprintln(os.Stderr, "netsim:", v.Format())
		}
		os.Exit(3)
	}
	if !res.Drained {
		fmt.Fprintf(os.Stderr,
			"netsim: drain phase timed out after %d cycles with %d transactions outstanding; statistics above are partial\n",
			cfg.MaxDrain, net.Table.Len())
		os.Exit(2)
	}
}

// replay loads a model-checker counterexample, drives its network down the
// recorded schedule, and verifies the recorded violation reproduces. A
// reproduced violation exits 0 (the counterexample is sound); a clean run or
// a different violation exits 2 (the schedule no longer belongs to this
// build's behavior).
func replay(path string) {
	data, err := os.ReadFile(path)
	fatal(err)
	cx, err := mc.DecodeCounterexample(data)
	fatal(err)
	fmt.Printf("replay: %s %s, %d txns, %d scheduled choices, recorded %s at cycle %d\n",
		cx.Net.Scheme, cx.Net.Pattern.Name, len(cx.Txns), len(cx.Schedule),
		cx.Violation.Kind, cx.Violation.Cycle)
	v, err := mc.Replay(cx)
	fatal(err)
	if v == nil {
		fmt.Fprintln(os.Stderr, "netsim: replay ran clean — the counterexample no longer reproduces")
		os.Exit(2)
	}
	fmt.Printf("replay: observed %s at cycle %d: %s\n", v.Kind, v.Cycle, v.Detail)
	if v.Kind != cx.Violation.Kind || v.Cycle != cx.Violation.Cycle {
		fmt.Fprintf(os.Stderr, "netsim: replay diverged from the recorded violation (%s at cycle %d)\n",
			cx.Violation.Kind, cx.Violation.Cycle)
		os.Exit(2)
	}
	fmt.Println("replay: reproduced")
}

// parseRadix parses "8x8" or "4x4x4" into per-dimension radices.
func parseRadix(s string) ([]int, error) {
	parts := strings.Split(strings.ToLower(s), "x")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad radix %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "netsim:", err)
		os.Exit(1)
	}
}
