// Command netsim runs a single network simulation point and prints its
// statistics: the flit-level wormhole simulator with a chosen
// message-dependent deadlock handling scheme (SA, DR, or PR), transaction
// pattern, and applied load.
//
// The run is a simsvc.RunSpec: each run flag is its JSON key, with the key's
// meaning and default, so a run served by simserve replays here.
//
// Example:
//
//	netsim -scheme PR -pattern PAT271 -vcs 4 -rate 0.012 -measure 30000
//	netsim -trace_app FFT -measure 15000 -digest
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
//	netsim -scheme PR -rate 0.01 -faults plan.json
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
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"strconv"
	"strings"

	"repro/internal/fault"
	"repro/internal/mc"
	"repro/internal/obs"
	"repro/internal/simsvc"
	"repro/internal/telemetry"
)

// spec is the run. Each flag of runFlags is named by a RunSpec key and writes
// that key here; Normalized fills in every key no flag set.
var (
	spec       simsvc.RunSpec
	radix      string // the radix key, spelled 8x8 or 4x4x4
	faultsPath string // a file holding the faults key's plan
	runFlags   = flag.NewFlagSet("run", flag.ExitOnError)
)

func init() {
	f := runFlags
	f.StringVar(&spec.Scheme, "scheme", "", "handling scheme: SA, DR, PR, SQ, or AB")
	f.StringVar(&spec.Pattern, "pattern", "", "transaction pattern: PAT100, PAT721, PAT451, PAT271, PAT280")
	f.StringVar(&spec.TraceApp, "trace_app", "", "replay a synthetic trace of FFT, LU, Radix or Water instead of a pattern: MSI, no warmup, -measure is the trace length, and radix and measure have their own defaults (simsvc.RunSpec)")
	f.StringVar(&radix, "radix", "", "torus radix, e.g. 8x8 or 4x4x4")
	f.BoolVar(&spec.Mesh, "mesh", false, "use a mesh (no wraparound links) instead of a torus")
	f.IntVar(&spec.Bristling, "bristling", 0, "processors per router")
	f.IntVar(&spec.VCs, "vcs", 0, "virtual channels per link")
	f.IntVar(&spec.FlitBuf, "flitbuf", 0, "flit buffers per virtual channel")
	f.IntVar(&spec.QueueCap, "queue_cap", 0, "message queue size")
	f.StringVar(&spec.QueueMode, "queue_mode", "", "queue allocation: default, shared, class, type")
	f.IntVar(&spec.ServiceTime, "service_time", 0, "message service time in cycles")
	f.Float64Var(&spec.Rate, "rate", 0, "request generation probability per node per cycle")
	f.IntVar(&spec.MaxOutstanding, "max_outstanding", 0, "max outstanding transactions per node (-1 = unlimited)")
	f.Uint64Var(&spec.Seed, "seed", 0, "random seed")
	f.Int64Var(&spec.Warmup, "warmup", 0, "warmup cycles (-1 = none)")
	f.Int64Var(&spec.Measure, "measure", 0, "measured cycles")
	f.Int64Var(&spec.MaxDrain, "max_drain", 0, "max drain cycles (-1 = none)")
	f.Int64Var(&spec.CWGInterval, "cwg_interval", 0, "CWG scan interval (-1 disables)")
	f.StringVar(&spec.Detector, "detector", "", "recovery trigger: threshold (the default: endpoint persistence counter) or probe (distributed edge chasing)")
	f.BoolVar(&spec.Check, "check", false, "run the runtime invariant checker; violations exit with status 3")
	f.StringVar(&faultsPath, "faults", "", "inject faults from this JSON plan file (see internal/fault)")

	// Each flag joins the command line while spec holds the defaults, so -h
	// shows them; then every flag starts from zero, which a spec reads as
	// "use the default".
	spec, _ = simsvc.RunSpec{}.Normalized()
	radix = strings.Trim(strings.ReplaceAll(fmt.Sprint(spec.Radix), " ", "x"), "[]")
	f.VisitAll(func(f *flag.Flag) { flag.Var(f.Value, f.Name, f.Usage) })
	spec, radix = simsvc.RunSpec{}, ""
}

// The observer flags watch or report the run and change nothing in it.
var (
	tracePath    = flag.String("trace", "", "write a structured event trace to this file")
	traceFormat  = flag.String("trace-format", "jsonl", "trace format: jsonl or chrome (chrome://tracing / Perfetto)")
	metricsCSV   = flag.String("metrics-csv", "", "write windowed time-series metrics as CSV to this file")
	metricsWin   = flag.Int64("metrics-window", 100, "metrics sampling window in cycles")
	episodes     = flag.Bool("episodes", false, "record deadlock episodes (needs CWG scanning) and print them")
	episodesJSON = flag.String("episodes-json", "", "write deadlock episodes as JSONL to this file (implies -episodes)")

	digest = flag.Bool("digest", false, "print a 64-bit digest of the full delivery log (regression fingerprint)")

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

	// Only observer flags are range-checked here; the spec's Normalized is
	// the one admission check of the run and names the Config field at fault.
	if *metricsWin < 1 {
		fatal(fmt.Errorf("-metrics-window must be at least 1 cycle, got %d", *metricsWin))
	}
	flag.Visit(func(f *flag.Flag) { fatal(refuseDefault(f)) })
	var err error
	if radix != "" {
		spec.Radix, err = parseRadix(radix)
		fatal(err)
	}
	if faultsPath != "" {
		data, err := os.ReadFile(faultsPath)
		fatal(err)
		spec.Faults, err = fault.ParsePlan(data)
		fatal(err)
	}
	norm, err := spec.Normalized()
	fatal(err)

	// Observability attachments. Files are closed (and stream sinks
	// finalized) after the run, before the process exits.
	var bus *obs.Bus
	var files []io.Closer
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		fatal(err)
		files = append(files, f)
		switch *traceFormat {
		case "jsonl":
			bus = obs.NewBus(obs.NewJSONLSink(f))
		case "chrome":
			bus = obs.NewBus(obs.NewChromeTraceSink(f))
		default:
			fatal(fmt.Errorf("unknown trace format %q (want jsonl or chrome)", *traceFormat))
		}
	}
	run, err := simsvc.NewRun(norm, bus)
	fatal(err)
	net := run.Net
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
	var prof *telemetry.CycleProfiler
	if *profile || *profileJSON != "" {
		if *profileSample < 1 {
			fatal(fmt.Errorf("-profile-sample must be at least 1, got %d", *profileSample))
		}
		prof = telemetry.NewCycleProfiler(*profileSample)
		net.AttachProfiler(prof)
	}

	net.Run()
	if bus := net.Bus(); bus != nil {
		fatal(bus.Close())
		for _, f := range files {
			fatal(f.Close())
		}
	}

	cfg, res := net.Cfg, run.Summary()
	fmt.Printf("config: %s %s on %v torus, %d VCs, rate=%.4f\n", cfg.Scheme, cfg.Pattern.Name, cfg.Radix, cfg.VCs, cfg.Rate)
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

	if res.Fault != nil {
		fmt.Println(res.Fault)
	}
	if run.Checker != nil {
		fmt.Printf("invariant sweeps:      %d\n", res.InvariantChecks)
	}
	if *digest {
		fmt.Printf("delivery digest:       %s (%d deliveries)\n", res.Digest, res.Deliveries)
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
	if run.Checker != nil && len(run.Checker.Violations()) > 0 {
		for _, v := range run.Checker.Violations() {
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

// refuseDefault refuses a run flag set to the zero number or empty string its
// key reads as "use the default": a command line means what it names.
func refuseDefault(f *flag.Flag) error {
	g, ok := f.Value.(flag.Getter)
	if !ok || runFlags.Lookup(f.Name) == nil {
		return nil
	}
	if v := reflect.ValueOf(g.Get()); v.Kind() == reflect.Bool || !v.Equal(reflect.Zero(v.Type())) {
		return nil
	}
	hint := "leave the flag out for it"
	switch f.Name {
	case "warmup", "max_drain", "cwg_interval", "max_outstanding":
		hint = "-1 means zero"
	}
	return fmt.Errorf("-%s %s means the default; %s", f.Name, cmp.Or(f.Value.String(), `""`), hint)
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
