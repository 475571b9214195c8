package network_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/check"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/schemes"
	"repro/internal/telemetry"
)

// saturatedCfg is the known-deadlock recipe (see deadlock.TestKnotsForm...):
// a 4x4 PR torus with scarce resources under PAT271 past saturation, all
// recovery thresholds unreachable so knots persist until the test decides.
func saturatedCfg() network.Config {
	cfg := network.DefaultConfig()
	cfg.Radix = []int{4, 4}
	cfg.Scheme = schemes.PR
	cfg.Pattern = protocol.PAT271
	cfg.VCs = 2
	cfg.QueueCap = 2
	cfg.Rate = 0.03
	cfg.Seed = 5
	cfg.Warmup = 0
	cfg.Measure = 100000
	cfg.MaxDrain = 0
	cfg.CWGInterval = 50
	cfg.DetectThreshold = 1 << 30
	cfg.RouterTimeout = 1 << 30
	return cfg
}

// TestEpisodeForensicsOnKnownDeadlock drives a real message-dependent
// deadlock, verifies the forensic snapshot is a closed wait structure
// consistent with the CWG detection, then re-enables recovery and verifies
// the episode closes as a rescue with a positive duration.
func TestEpisodeForensicsOnKnownDeadlock(t *testing.T) {
	n, err := network.New(saturatedCfg())
	if err != nil {
		t.Fatal(err)
	}
	ring := obs.NewRingSink(1 << 15)
	n.AttachObs(obs.NewBus(ring))
	tracker := &obs.EpisodeTracker{}
	if err := n.AttachEpisodes(tracker); err != nil {
		t.Fatal(err)
	}
	n.Rescue.Lose() // no recovery: knots persist

	var ep *obs.Episode
	for i := 0; i < 150 && ep == nil; i++ {
		n.RunCycles(100)
		ep = tracker.Open()
	}
	if ep == nil {
		t.Fatal("saturated unrecovered PR network never opened a deadlock episode")
	}
	if n.Detector.Deadlocks < 1 {
		t.Fatal("episode opened without a detector knot")
	}
	if len(ep.Chain) != ep.Resources {
		t.Fatalf("chain has %d members but the scan reported %d deadlocked resources",
			len(ep.Chain), ep.Resources)
	}
	if !ep.ClosedCycle() {
		t.Fatalf("episode chain is not a closed wait structure:\n%s", ep.Format())
	}
	occupants, agedVCs := 0, 0
	for _, r := range ep.Chain {
		if r.MsgType != "" {
			occupants++
		}
		if r.Kind == "vc" {
			if r.BlockedFor < 0 {
				t.Fatalf("deadlocked VC %s has unknown blocked duration", r.Desc)
			}
			if r.BlockedFor > 0 {
				agedVCs++
			}
		}
	}
	if occupants == 0 {
		t.Fatal("no chain member carries occupant message identity")
	}
	if agedVCs == 0 {
		t.Fatal("no deadlocked VC shows a positive blocked duration")
	}

	// Re-enable recovery; the episode must close as a rescue.
	n.Rescue.Regenerate(0)
	for i := 0; i < 150 && tracker.Open() == ep; i++ {
		n.RunCycles(100)
	}
	closed := tracker.Episodes()[0]
	if closed.Resolved < 0 {
		t.Fatal("episode never closed after recovery was re-enabled")
	}
	if closed.Resolution != "rescue" {
		t.Fatalf("resolution = %q, want rescue", closed.Resolution)
	}
	if closed.Duration() <= 0 {
		t.Fatalf("episode duration = %d", closed.Duration())
	}

	// The trace stream must have seen the same story.
	kinds := map[obs.Kind]int{}
	for _, e := range ring.Events() {
		kinds[e.Kind]++
	}
	for _, k := range []obs.Kind{obs.KindCWGScan, obs.KindCWGDeadlock,
		obs.KindEpisodeOpen, obs.KindEpisodeClose, obs.KindTokenCapture} {
		if kinds[k] == 0 {
			t.Fatalf("no %s events on the bus (saw %v)", k, kinds)
		}
	}
}

// TestChromeTraceFromRunIsValidJSON runs a traced simulation and verifies
// the Chrome trace output parses as a single JSON document of trace events.
func TestChromeTraceFromRunIsValidJSON(t *testing.T) {
	cfg := network.DefaultConfig()
	cfg.Radix = []int{4, 4}
	cfg.Scheme = schemes.PR
	cfg.Pattern = protocol.PAT271
	cfg.Rate = 0.01
	cfg.Warmup, cfg.Measure, cfg.MaxDrain = 0, 100000, 0
	n, err := network.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	bus := obs.NewBus(obs.NewChromeTraceSink(&buf))
	n.AttachObs(bus)
	n.RunCycles(2000)
	if err := bus.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace from live run is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < 10 {
		t.Fatalf("only %d trace events from a 2000-cycle loaded run", len(doc.TraceEvents))
	}
}

// TestObservabilityDoesNotPerturbSimulation runs the same seeded deadlocking
// configuration bare and with every watcher attached (a trace sink, the
// sampler, the episode tracker, the invariant checker, the cycle profiler),
// once per recovery path, and requires the delivery digest, the final clock,
// the run's counters and the sweep's work counters to be identical: observing
// must never steer, nor change what the engine steps. The watched run must
// also have something to watch: at least one episode closed the way its scheme
// recovers.
func TestObservabilityDoesNotPerturbSimulation(t *testing.T) {
	type outcome struct {
		Digest                                                  string
		Deliveries, Clock                                       int64
		Flits, Detects, Deflections, Rescues, Knots, Txns, Open int64
		RouterSteps, NISteps, IdleCycles                        int64
	}
	for _, c := range []struct {
		scheme     schemes.Kind
		vcs        int
		resolution string
	}{
		{schemes.PR, 2, "rescue"},
		{schemes.DR, 4, "deflection"},
		{schemes.AB, 4, "nack"},
	} {
		run := func(attach func(n *network.Network)) outcome {
			cfg := saturatedCfg()
			cfg.Scheme, cfg.VCs, cfg.Rate = c.scheme, c.vcs, 0.05
			cfg.Measure, cfg.MaxDrain = 3000, 1500
			cfg.DetectThreshold = network.DefaultConfig().DetectThreshold
			cfg.RouterTimeout = network.DefaultConfig().RouterTimeout
			n, err := network.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			attach(n)
			dig := check.AttachDigest(n)
			st := n.Run()
			routerSteps, niSteps, idleCycles := n.StepCounts()
			return outcome{dig.String(), dig.Count(), n.Clock.Now(),
				st.DeliveredFlits, st.DetectEvents, st.Deflections, st.Rescues,
				st.CWGDeadlocks, st.TxnCompleted, int64(n.Table.Len()),
				routerSteps, niSteps, idleCycles}
		}
		bare := run(func(*network.Network) {})
		if bare.Deliveries == 0 || bare.Knots == 0 {
			t.Fatalf("%s: the bare run delivers %d messages and sees %d knots", c.scheme, bare.Deliveries, bare.Knots)
		}

		var tracker obs.EpisodeTracker
		var checker *check.Checker
		var csv bytes.Buffer
		var bus *obs.Bus
		prof := telemetry.NewCycleProfiler(1)
		watched := run(func(n *network.Network) {
			bus = obs.NewBus(obs.NewRingSink(1024))
			n.AttachObs(bus)
			n.AttachSampler(obs.NewSampler(&csv, 100, n.Torus.Endpoints(), n.Gauges))
			if err := n.AttachEpisodes(&tracker); err != nil {
				t.Fatal(err)
			}
			checker = check.Attach(n, check.Options{})
			n.AttachProfiler(prof)
		})
		if watched != bare {
			t.Errorf("%s: observing perturbed the run:\nbare    %+v\nwatched %+v", c.scheme, bare, watched)
		}
		if vs := checker.Violations(); len(vs) > 0 || checker.Checks() == 0 {
			t.Errorf("%s: %d invariant sweeps, violations %v", c.scheme, checker.Checks(), vs)
		}
		if err := bus.Close(); err != nil || csv.Len() == 0 {
			t.Errorf("%s: the sampler wrote nothing", c.scheme)
		}
		closed := 0
		for _, ep := range tracker.Episodes() {
			if ep.Resolution == c.resolution {
				closed++
			}
		}
		if closed == 0 {
			t.Errorf("%s: no episode closed by %s among %d", c.scheme, c.resolution, len(tracker.Episodes()))
		}
		t.Logf("%s: %d of %d episodes closed by %s; %+v", c.scheme, closed, len(tracker.Episodes()), c.resolution, bare)
		if prof.Breakdown().Cycles != bare.Clock {
			t.Errorf("%s: profiled %d cycles of %d", c.scheme, prof.Breakdown().Cycles, bare.Clock)
		}
	}
}

// TestProfilerDoesNotPerturbSimulation: a profiled run steps exactly what an
// unprofiled one steps (the same deliveries, sweep work and allocation work)
// at low load, where most cycles take the idle fast path, and at the knee.
// The profiler must also time every one of those cycles, sampling every cycle
// or every 16th: it counts the cycles the clock counts, and its marks account
// for all of each sampled cycle, idle ones included.
func TestProfilerDoesNotPerturbSimulation(t *testing.T) {
	type outcome struct {
		Digest                           string
		Deliveries, Clock                int64
		RouterSteps, NISteps, IdleCycles int64
		VAAttempts, VAGrants             int64
	}
	for _, rate := range []float64{0.001, 0.02} {
		run := func(prof *telemetry.CycleProfiler) outcome {
			cfg := network.DefaultConfig()
			cfg.Radix = []int{4, 4}
			cfg.Scheme, cfg.Pattern, cfg.VCs, cfg.Rate = schemes.PR, protocol.PAT271, 4, rate
			cfg.Warmup, cfg.Measure, cfg.MaxDrain = 500, 3000, 8000
			n, err := network.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if prof != nil {
				n.AttachProfiler(prof)
			}
			dig := check.AttachDigest(n)
			n.Run()
			o := outcome{Digest: dig.String(), Deliveries: dig.Count(), Clock: n.Clock.Now()}
			o.RouterSteps, o.NISteps, o.IdleCycles = n.StepCounts()
			o.VAAttempts, o.VAGrants = n.VACounts()
			return o
		}
		plain := run(nil)
		if plain.Deliveries == 0 || rate == 0.001 && plain.IdleCycles == 0 {
			t.Fatalf("rate %v: the plain run delivers %d messages with %d idle cycles", rate, plain.Deliveries, plain.IdleCycles)
		}
		for _, every := range []int64{1, 16} {
			prof := telemetry.NewCycleProfiler(every)
			if profiled := run(prof); profiled != plain {
				t.Errorf("rate %v, sampling every %d: profiler perturbed the run:\nplain    %+v\nprofiled %+v", rate, every, plain, profiled)
			}
			if b := prof.Breakdown(); b.Cycles != plain.Clock || b.AccountedFraction != 1 {
				t.Errorf("rate %v, sampling every %d: profiled %d of %d cycles, %v of their time accounted\n%s",
					rate, every, b.Cycles, plain.Clock, b.AccountedFraction, b.Format())
			}
		}
		t.Logf("rate %v: %+v", rate, plain)
	}
}

// TestSamplerRunProducesRows checks the sampler wiring end to end: a traced
// run emits one CSV row per window with the declared header.
func TestSamplerRunProducesRows(t *testing.T) {
	cfg := network.DefaultConfig()
	cfg.Radix = []int{4, 4}
	cfg.Scheme = schemes.PR
	cfg.Pattern = protocol.PAT271
	cfg.Rate = 0.01
	cfg.Warmup, cfg.Measure, cfg.MaxDrain = 0, 100000, 0
	n, err := network.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n.AttachSampler(obs.NewSampler(&buf, 100, n.Torus.Endpoints(), n.Gauges))
	n.RunCycles(1000)
	if err := n.Bus().Close(); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 11 { // header + 10 windows
		t.Fatalf("%d CSV lines for 1000 cycles at window 100, want 11", len(lines))
	}
	if !bytes.HasPrefix(lines[0], []byte("cycle,")) {
		t.Fatalf("bad header %q", lines[0])
	}
}
