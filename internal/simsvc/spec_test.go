package simsvc

import (
	"strings"
	"testing"

	"repro/internal/fault"
)

// tinySpec is a fast-running configuration for tests: a 2x2 torus point
// finishes in a few milliseconds.
func tinySpec() RunSpec {
	return RunSpec{
		Scheme:  "PR",
		Pattern: "PAT271",
		Radix:   []int{2, 2},
		Rate:    0.02,
		Warmup:  -1,
		Measure: 500,
	}
}

func TestNormalizedFillsDefaults(t *testing.T) {
	n, err := (RunSpec{}).Normalized()
	if err != nil {
		t.Fatalf("empty spec: %v", err)
	}
	if n.Scheme != "PR" || n.Pattern != "PAT271" || n.VCs != 4 || n.Seed != 1 {
		t.Errorf("unexpected defaults: %+v", n)
	}
	if n.Warmup != 2000 || n.Measure != 8000 || n.MaxDrain != 10000 || n.CWGInterval != 50 {
		t.Errorf("unexpected phase defaults: %+v", n)
	}
	// Normalization is idempotent.
	again, err := n.Normalized()
	if err != nil {
		t.Fatalf("re-normalize: %v", err)
	}
	if again.Canonical() != n.Canonical() {
		t.Errorf("normalization not idempotent:\n%s\nvs\n%s", n.Canonical(), again.Canonical())
	}
}

func TestHashIgnoresExplicitness(t *testing.T) {
	implicit, err := (RunSpec{}).Normalized()
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := (RunSpec{Scheme: "pr", Pattern: "PAT271", VCs: 4, Seed: 1, Rate: 0.01}).Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if implicit.Hash() != explicit.Hash() {
		t.Errorf("defaulted and explicit specs hash differently:\n%s\nvs\n%s",
			implicit.Canonical(), explicit.Canonical())
	}
}

func TestHashSeparatesFields(t *testing.T) {
	base, err := tinySpec().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{base.Hash(): "base"}
	for name, mutate := range map[string]func(*RunSpec){
		"scheme": func(s *RunSpec) { s.Scheme = "DR" },
		"rate":   func(s *RunSpec) { s.Rate = 0.021 },
		"seed":   func(s *RunSpec) { s.Seed = 2 },
		"vcs":    func(s *RunSpec) { s.VCs = 8 },
		"check":  func(s *RunSpec) { s.Check = true },
		"mesh":   func(s *RunSpec) { s.Mesh = true },
	} {
		sp := tinySpec()
		mutate(&sp)
		n, err := sp.Normalized()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if prev, dup := seen[n.Hash()]; dup {
			t.Errorf("mutation %q collides with %q", name, prev)
		}
		seen[n.Hash()] = name
	}
}

func TestNormalizedRejectsInvalid(t *testing.T) {
	cases := map[string]RunSpec{
		"unknown scheme":     {Scheme: "XX"},
		"unknown pattern":    {Pattern: "PATnope"},
		"unknown trace app":  {TraceApp: "Quake"},
		"trace with rate":    {TraceApp: "FFT", Rate: 0.01},
		"trace with warmup":  {TraceApp: "FFT", Warmup: 100},
		"rate above 1":       {Rate: 1.5},
		"negative measure":   {Measure: -5},
		"tiny radix":         {Radix: []int{1, 4}},
		"bad queue mode":     {QueueMode: "heap"},
		"cwg below -1":       {CWGInterval: -5},
		"outstanding < -1":   {MaxOutstanding: -4},
		"oversized torus":    {Radix: []int{1 << 20, 1 << 20}},
		"SA chain-3 at 4VCs": {Scheme: "SA", Pattern: "PAT271", VCs: 4},
	}
	for name, spec := range cases {
		if _, err := spec.Normalized(); err == nil {
			t.Errorf("%s: accepted %+v", name, spec)
		}
	}
}

func TestTraceSpecNormalization(t *testing.T) {
	n, err := (RunSpec{TraceApp: "FFT"}).Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if n.Pattern != "MSI" || n.Warmup != 0 || n.Measure != 50000 {
		t.Errorf("trace defaults wrong: %+v", n)
	}
	if len(n.Radix) != 2 || n.Radix[0] != 4 {
		t.Errorf("trace radix default wrong: %v", n.Radix)
	}
}

func TestCanonicalListsEveryField(t *testing.T) {
	n, err := tinySpec().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	c := n.Canonical()
	for _, key := range []string{"scheme=", "pattern=", "trace_app=", "radix=", "mesh=",
		"bristling=", "vcs=", "flitbuf=", "queue_cap=", "queue_mode=", "service_time=",
		"rate=", "max_outstanding=", "seed=", "warmup=", "measure=", "max_drain=",
		"cwg_interval=", "check=", "faults="} {
		if !strings.Contains(c, key) {
			t.Errorf("canonical encoding missing %q:\n%s", key, c)
		}
	}
}

// TestFaultPlanHashing: a fault plan is part of the spec's identity — and an
// empty plan is not, so fault-free specs hash exactly as they did before
// fault support existed.
func TestFaultPlanHashing(t *testing.T) {
	plain, err := tinySpec().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	withEmpty := tinySpec()
	withEmpty.Faults = &fault.Plan{}
	ne, err := withEmpty.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if ne.Faults != nil || ne.Hash() != plain.Hash() {
		t.Fatalf("empty plan changed the hash: %s vs %s", ne.Hash(), plain.Hash())
	}

	faulted := tinySpec()
	faulted.Faults = &fault.Plan{Events: []fault.Event{{Kind: fault.TokenLoss, At: 50}}}
	nf, err := faulted.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if nf.Hash() == plain.Hash() {
		t.Fatal("fault plan did not separate the hash")
	}
	// Seed normalization applies inside the plan too: seed 0 and 1 collide.
	seeded := tinySpec()
	seeded.Faults = &fault.Plan{Seed: 1, Events: []fault.Event{{Kind: fault.TokenLoss, At: 50}}}
	ns, err := seeded.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if ns.Hash() != nf.Hash() {
		t.Fatal("plan seed 0 vs 1 hash apart after normalization")
	}
}

// TestFaultPlanValidatedAtNormalize: out-of-range plan coordinates fail spec
// normalization, before any job is scheduled.
func TestFaultPlanValidatedAtNormalize(t *testing.T) {
	s := tinySpec()
	s.Faults = &fault.Plan{Events: []fault.Event{{Kind: fault.LinkDown, Router: 99}}}
	if _, err := s.Normalized(); err == nil {
		t.Fatal("out-of-range fault router accepted")
	}
}
