package simsvc

import (
	"bytes"
	"encoding/json"
	"reflect"
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

// TestCanonicalCoversEveryField: a finished job reads its spec from the store
// entry its hash resolved to, which holds the normalized spec of whichever job
// put it there. That is every such job's own spec only if equal hashes mean
// equal normalized specs, so changing any one field of a normalized spec, or of
// a fault event in its plan, must change Hash. The fields are found by
// reflection: a field added to RunSpec, fault.Plan or fault.Event without its
// place in Canonical fails here.
func TestCanonicalCoversEveryField(t *testing.T) {
	base, err := tinySpec().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	base.Faults = &fault.Plan{Seed: 1, Events: []fault.Event{{Kind: fault.LinkFlaky,
		At: 10, Until: 20, Router: 1, Dir: 1, Endpoint: 1, VC: 1, Cycles: 5, Rate: 0.5}}}
	want := base.Hash()
	changed := 0
	var vary func(path string, v reflect.Value)
	vary = func(path string, v reflect.Value) {
		check := func() {
			changed++
			if base.Hash() == want {
				t.Errorf("changing %s leaves the hash at %s:\n%s", path, want, base.Canonical())
			}
		}
		old := reflect.New(v.Type()).Elem()
		old.Set(v)
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				vary(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
			return
		case reflect.Pointer:
			v.Set(reflect.Zero(v.Type()))
			check()
			v.Set(old)
			vary(path, v.Elem())
			return
		case reflect.Slice:
			v.Set(reflect.Append(v, v.Index(0)))
			check()
			v.Set(old)
			vary(path+"[0]", v.Index(0))
			return
		case reflect.String:
			v.SetString(v.String() + "x")
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case reflect.Float64:
			v.SetFloat(v.Float() + 0.25)
		default:
			t.Fatalf("%s: no variant for a %s", path, v.Kind())
		}
		check()
		v.Set(old)
	}
	vary("RunSpec", reflect.ValueOf(&base).Elem())
	if base.Hash() != want {
		t.Fatal("the walk did not restore the spec")
	}
	t.Logf("%d single-field changes, each a new hash", changed)
}

// literalZero reports whether a normalized spec holds a zero that a -1 in the
// request asked for. Written out, that zero is omitted and reads back as "use
// the default", so such a spec is not a fixed point of normalization; the
// cluster coordinator forwards the client's bytes for this reason.
func literalZero(n RunSpec) bool {
	return n.Warmup == 0 && n.TraceApp == "" || n.MaxDrain == 0 || n.CWGInterval == 0 || n.MaxOutstanding == 0
}

// FuzzSpecRoundTrip: for any body the API decodes and normalizes, the JSON of
// the normalized spec decodes and encodes to the same bytes and the same Hash;
// and, unless the spec holds a literal zero (literalZero), normalizing it again
// changes nothing, nor does normalizing what its JSON decodes to.
func FuzzSpecRoundTrip(f *testing.F) {
	for _, body := range []string{
		tinySpecJSON,
		`{}`,
		`{"scheme":"dr","pattern":"PAT280","vcs":8,"rate":0.05,"seed":7,"check":true}`,
		`{"trace_app":"FFT","measure":3000}`,
		`{"radix":[4,4],"mesh":true,"bristling":2,"queue_mode":"class","max_outstanding":-1,"max_drain":-1,"cwg_interval":-1}`,
		`{"radix":[4,4],"faults":{"events":[{"kind":"link-down","at":0,"router":9,"dir":0},{"kind":"token-loss","at":800}]}}`,
		`{"faults":{"seed":3,"events":[{"kind":"link-flaky","at":5,"until":50,"router":1,"dir":2,"rate":0.25,"drop":true}]}}`,
		`{"faults":{"events":[]}}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec RunSpec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&spec) != nil {
			return
		}
		n, err := spec.Normalized()
		if err != nil {
			return
		}
		enc, err := json.Marshal(n)
		if err != nil {
			t.Fatal(err)
		}
		var back RunSpec
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("%s does not decode: %v", enc, err)
		}
		if again, _ := json.Marshal(back); !bytes.Equal(again, enc) || back.Hash() != n.Hash() {
			t.Fatalf("normalized spec %s reads back as %s, hash %s, was %s", enc, again, back.Hash(), n.Hash())
		}
		if literalZero(n) {
			return
		}
		if twice, err := n.Normalized(); err != nil || !reflect.DeepEqual(twice, n) {
			t.Fatalf("normalizing %s again: %+v, %v", enc, twice, err)
		}
		r, err := back.Normalized()
		if err != nil {
			t.Fatalf("%s does not normalize: %v", enc, err)
		}
		if renc, _ := json.Marshal(r); r.Hash() != n.Hash() || !bytes.Equal(renc, enc) {
			t.Fatalf("%s encoded, decoded and normalized is %s, hash %s, was %s", enc, renc, r.Hash(), n.Hash())
		}
	})
}
