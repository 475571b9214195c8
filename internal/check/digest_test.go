package check_test

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/check"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/schemes"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_digests.json from the current implementation")

type goldenEntry struct {
	Digest     string `json:"digest"`
	Deliveries int64  `json:"deliveries"`
}

// goldenConfigs is the pinned configuration matrix: one run per
// deadlock-handling family, short enough for CI, long enough to exercise
// warmup, measurement, and drain. The wide-channel entries were recorded
// before the router packed all its inputs into shared words: five inputs of
// 16 VCs fill two words, of 13 VCs 65 bits (the last group is padded into a
// second word), of 24 VCs three words.
func goldenConfigs() map[string]network.Config {
	mk := func(kind schemes.Kind, pat *protocol.Pattern, vcs int, rate float64) network.Config {
		cfg := network.DefaultConfig()
		cfg.Radix = []int{4, 4}
		cfg.Scheme = kind
		cfg.Pattern = pat
		cfg.VCs = vcs
		cfg.Rate = rate
		cfg.Warmup = 200
		cfg.Measure = 1200
		cfg.MaxDrain = 6000
		return cfg
	}
	return map[string]network.Config{
		"sa-pat271": mk(schemes.SA, protocol.PAT271, 8, 0.008),
		"dr-pat271": mk(schemes.DR, protocol.PAT271, 4, 0.012),
		"pr-pat271": mk(schemes.PR, protocol.PAT271, 4, 0.02),

		"pr-pat271-16vc": mk(schemes.PR, protocol.PAT271, 16, 0.02),
		"dr-pat721-13vc": mk(schemes.DR, protocol.PAT721, 13, 0.012),
		"sa-pat271-24vc": mk(schemes.SA, protocol.PAT271, 24, 0.008),
	}
}

func runDigest(t *testing.T, cfg network.Config) *check.Digest {
	t.Helper()
	n := mustNet(t, cfg)
	d := check.AttachDigest(n)
	n.Run()
	return d
}

// TestGoldenDigests compares each pinned configuration's delivery digest
// against testdata/golden_digests.json. Any behavioural change — ordering,
// latency, recovery decisions — shows up here; refresh deliberately with
// `go test ./internal/check -run TestGoldenDigests -update` and review the
// diff like any other golden change.
func TestGoldenDigests(t *testing.T) {
	path := filepath.Join("testdata", "golden_digests.json")
	got := map[string]goldenEntry{}
	for name, cfg := range goldenConfigs() {
		d := runDigest(t, cfg)
		got[name] = goldenEntry{Digest: d.String(), Deliveries: d.Count()}
	}
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (generate with -update): %v", err)
	}
	want := map[string]goldenEntry{}
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	for name, g := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no pinned digest (run -update)", name)
			continue
		}
		if g != w {
			t.Errorf("%s: digest %s (%d deliveries), pinned %s (%d)",
				name, g.Digest, g.Deliveries, w.Digest, w.Deliveries)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: pinned but no longer in the config matrix", name)
		}
	}
}

// TestDigestDeterminism: the digest is a function of configuration and seed
// alone — identical runs agree, and a different seed disagrees.
func TestDigestDeterminism(t *testing.T) {
	cfg := smallCfg(schemes.PR, protocol.PAT271, 4, 0.015)
	cfg.Measure = 1000
	a := runDigest(t, cfg)
	b := runDigest(t, cfg)
	if a.Sum() != b.Sum() || a.Count() != b.Count() {
		t.Fatalf("same configuration, different digests: %v (%d) vs %v (%d)", a, a.Count(), b, b.Count())
	}
	if a.Count() == 0 {
		t.Fatal("digest saw no deliveries")
	}
	cfg.Seed = 99
	c := runDigest(t, cfg)
	if c.Sum() == a.Sum() {
		t.Fatal("different seeds produced the same digest")
	}
}

// TestProbeDigestDeterminism: with the in-band probe detector active and
// actually declaring (congested PAT280), repeated runs at a fixed seed are
// byte-identical — same delivery digest AND same probe traffic. Probes share
// the fabric's bandwidth accounting, so any nondeterminism in the engine
// would leak into delivery order and show up in the digest. The second run
// carries the invariant checker, which judges every recovery dispatch against
// the independent knot rebuild: it must stay clean and must not move the
// digest either.
func TestProbeDigestDeterminism(t *testing.T) {
	run := func(checked bool) (*check.Digest, [4]int64) {
		cfg := smallCfg(schemes.PR, protocol.PAT280, 2, 0.08)
		cfg.FlitBuf = 1
		cfg.QueueCap = 2
		cfg.DetectThreshold = 8
		cfg.Detector = network.DetectorProbe
		cfg.Measure = 1500
		n := mustNet(t, cfg)
		d := check.AttachDigest(n)
		var c *check.Checker
		if checked {
			c = check.Attach(n, check.Options{Interval: 32})
		}
		n.Run()
		if checked {
			if err := c.Err(); err != nil {
				t.Fatal(err)
			}
			t.Logf("checker: %d sweeps, %d no-knot dispatches", c.Checks(), c.NoKnotDispatches)
		}
		return d, [4]int64{n.Probe.Launched, n.Probe.Issued, n.Probe.Declared, n.Probe.FlitsCharged}
	}
	a, pa := run(false)
	b, pb := run(true)
	if a.Sum() != b.Sum() || a.Count() != b.Count() {
		t.Fatalf("same configuration, different digests: %v (%d) vs %v (%d)", a, a.Count(), b, b.Count())
	}
	if pa != pb {
		t.Fatalf("probe counters diverged between identical runs: %v vs %v", pa, pb)
	}
	if pa[0] == 0 || pa[2] == 0 {
		t.Fatalf("probe engine never declared (launched=%d declared=%d); the run is not exercising in-band detection", pa[0], pa[2])
	}
	t.Logf("digest %v over %d deliveries; probe launched=%d issued=%d declared=%d", a, a.Count(), pa[0], pa[1], pa[2])
}
