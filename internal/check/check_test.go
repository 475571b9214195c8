package check_test

import (
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/message"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/schemes"
)

func smallCfg(kind schemes.Kind, pat *protocol.Pattern, vcs int, rate float64) network.Config {
	cfg := network.DefaultConfig()
	cfg.Radix = []int{4, 4}
	cfg.Scheme = kind
	cfg.Pattern = pat
	cfg.VCs = vcs
	cfg.Rate = rate
	cfg.Warmup = 500
	cfg.Measure = 2500
	cfg.MaxDrain = 8000
	return cfg
}

func mustNet(t *testing.T, cfg network.Config) *network.Network {
	t.Helper()
	n, err := network.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func rules(vs []check.Violation) []string {
	var r []string
	for _, v := range vs {
		r = append(r, v.Rule)
	}
	return r
}

func hasRule(vs []check.Violation, rule string) bool {
	for _, v := range vs {
		if v.Rule == rule {
			return true
		}
	}
	return false
}

// TestCleanRunsAcrossSchemes is the core conformance statement: full runs of
// every deadlock-handling scheme — including loads high enough to trigger
// deflections, NACK kills, and token rescues — sustain every invariant with
// the checker always on.
func TestCleanRunsAcrossSchemes(t *testing.T) {
	cases := []struct {
		name string
		kind schemes.Kind
		pat  *protocol.Pattern
		vcs  int
		rate float64
	}{
		{"SA-low", schemes.SA, protocol.PAT271, 8, 0.01},
		{"DR-low", schemes.DR, protocol.PAT271, 8, 0.01},
		{"PR-low", schemes.PR, protocol.PAT271, 8, 0.01},
		{"AB-low", schemes.AB, protocol.PAT271, 4, 0.008},
		{"DR-hot", schemes.DR, protocol.PAT271, 4, 0.025},
		{"PR-hot", schemes.PR, protocol.PAT271, 4, 0.03},
		{"PR-fanout", schemes.PR, protocol.PAT280, 4, 0.012},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := mustNet(t, smallCfg(tc.kind, tc.pat, tc.vcs, tc.rate))
			c := check.Attach(n, check.Options{Interval: 32})
			n.Run()
			if err := c.Err(); err != nil {
				t.Fatalf("%s: %v\nall rules: %v", tc.name, err, rules(c.Violations()))
			}
			if c.Checks() == 0 {
				t.Fatal("checker never ran")
			}
			if n.Stats.DeliveredMsgs == 0 {
				t.Fatal("nothing delivered")
			}
		})
	}
}

// TestCreditLeakCaughtWithinOneInterval injects the acceptance-criterion
// bug: a delivery that claims an input-queue reservation that was never
// made, driving the credit counter negative. The periodic sweep must flag it
// within one checking interval.
func TestCreditLeakCaughtWithinOneInterval(t *testing.T) {
	const interval = 64
	n := mustNet(t, smallCfg(schemes.PR, protocol.PAT271, 8, 0.01))
	c := check.Attach(n, check.Options{Interval: interval})
	n.RunCycles(200)
	if err := c.Err(); err != nil {
		t.Fatalf("violations before injection: %v", err)
	}
	now := n.Clock.Now()

	// Forge a plausible delivery: a real transaction's first message,
	// delivered with reserved=true although no header ever claimed a slot.
	tmpl := n.Engine.PickTemplate(0)
	_, width := tmpl.FanoutIndex()
	thirds := make([]int, width)
	for i := range thirds {
		thirds[i] = 2
	}
	txn := n.Engine.NewTransaction(tmpl, 0, 1, thirds, now)
	n.Table.Add(txn)
	m := n.Pool.NewMessage(txn.ID, message.M1, 0, 0, 1, 4, now)
	n.NIs[1].DeliverMessage(m, now, true)

	n.RunCycles(interval + 1)
	if !hasRule(c.Violations(), "input-credit") {
		t.Fatalf("credit leak not caught within one interval; rules seen: %v", rules(c.Violations()))
	}
	for _, v := range c.Violations() {
		if v.Rule == "input-credit" {
			if v.Cycle > now+interval+1 {
				t.Fatalf("caught at cycle %d, injected at %d, interval %d", v.Cycle, now, interval)
			}
			break
		}
	}
}

// TestUseAfterReleaseCaught plants a released (pooled) message in a live
// source queue; the pool-safety walk must see it.
func TestUseAfterReleaseCaught(t *testing.T) {
	n := mustNet(t, smallCfg(schemes.PR, protocol.PAT271, 8, 0.01))
	c := check.Attach(n, check.Options{})
	n.RunCycles(100)
	now := n.Clock.Now()

	m := n.Pool.NewMessage(0, message.M1, 0, 0, 1, 4, now)
	n.Pool.PutMessage(m)
	n.NIs[0].EnqueueSource(m)

	c.CheckNow(now)
	if !hasRule(c.Violations(), "pooled-message-in-ni") {
		t.Fatalf("use-after-release not caught; rules seen: %v", rules(c.Violations()))
	}
}

// TestKnotFalsePositiveCaught sets the Knotted flag on a demonstrably free
// VC; the independent wait-graph rebuild must contradict the detector.
func TestKnotFalsePositiveCaught(t *testing.T) {
	n := mustNet(t, smallCfg(schemes.PR, protocol.PAT271, 8, 0.005))
	c := check.Attach(n, check.Options{})
	n.RunCycles(60)
	now := n.Clock.Now()

	for _, ch := range n.Channels {
		if ch.VCs[0].Len() == 0 {
			ch.VCs[0].Knotted = true
			break
		}
	}
	c.VerifyKnots(now)
	if !hasRule(c.Violations(), "knot-soundness") {
		t.Fatalf("forged knot flag not caught; rules seen: %v", rules(c.Violations()))
	}
}

type captureSink struct{ events []obs.Event }

func (s *captureSink) Event(e obs.Event) { s.events = append(s.events, e) }

// TestViolationEmitsObsEvent: a violation must surface as a structured
// KindInvariant event carrying the rule and a non-trivial state snapshot.
func TestViolationEmitsObsEvent(t *testing.T) {
	n := mustNet(t, smallCfg(schemes.PR, protocol.PAT271, 8, 0.01))
	sink := &captureSink{}
	n.AttachObs(obs.NewBus(sink))
	c := check.Attach(n, check.Options{})
	n.RunCycles(100)
	now := n.Clock.Now()

	m := n.Pool.NewMessage(0, message.M1, 0, 0, 1, 4, now)
	n.Pool.PutMessage(m)
	n.NIs[3].EnqueueSource(m)
	c.CheckNow(now)

	var ev *obs.Event
	for i := range sink.events {
		if sink.events[i].Kind == obs.KindInvariant {
			ev = &sink.events[i]
			break
		}
	}
	if ev == nil {
		t.Fatal("no invariant-violation event emitted")
	}
	if !strings.Contains(ev.Note, "pooled-message-in-ni") {
		t.Fatalf("event note missing rule: %q", ev.Note)
	}
	if !strings.Contains(ev.Note, "state:") {
		t.Fatalf("event note missing snapshot: %q", ev.Note)
	}
	if len(c.Violations()) == 0 || c.Violations()[0].Snapshot == "" {
		t.Fatal("violation recorded without snapshot")
	}
}

// TestFailFastPanics: under FailFast a corrupted cycle must halt the run
// immediately rather than diffusing into the statistics.
func TestFailFastPanics(t *testing.T) {
	n := mustNet(t, smallCfg(schemes.PR, protocol.PAT271, 8, 0.01))
	c := check.Attach(n, check.Options{FailFast: true})
	n.RunCycles(100)
	now := n.Clock.Now()

	m := n.Pool.NewMessage(0, message.M1, 0, 0, 1, 4, now)
	n.Pool.PutMessage(m)
	n.NIs[0].EnqueueSource(m)

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("FailFast violation did not panic")
		}
		if !strings.Contains(r.(string), "pooled-message-in-ni") {
			t.Fatalf("panic message missing rule: %v", r)
		}
	}()
	c.CheckNow(now)
}

// TestMaxViolationsMutes: a persistently corrupt system must not record
// violations without bound.
func TestMaxViolationsMutes(t *testing.T) {
	n := mustNet(t, smallCfg(schemes.PR, protocol.PAT271, 8, 0.01))
	c := check.Attach(n, check.Options{})
	n.RunCycles(100)
	now := n.Clock.Now()

	m := n.Pool.NewMessage(0, message.M1, 0, 0, 1, 4, now)
	n.Pool.PutMessage(m)
	n.NIs[0].EnqueueSource(m)
	for i := 0; i < check.MaxViolations+10; i++ {
		c.CheckNow(now)
	}
	if got := len(c.Violations()); got != check.MaxViolations {
		t.Fatalf("recorded %d violations, want cap %d", got, check.MaxViolations)
	}
}
