package network_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/message"
	"repro/internal/netiface"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/schemes"
	"repro/internal/simsvc"
)

// wideFanout is a valid pattern whose home fans a request out to 17 third
// parties, one more than the default queue holds.
var wideFanout = &protocol.Pattern{
	Name:  "FAN17",
	Style: protocol.StyleS1,
	Templates: []*protocol.Template{{Name: "fan17", Steps: []protocol.Step{
		{Type: message.M1, Dest: protocol.RoleHome},
		{Type: message.M2, Dest: protocol.RoleThird, Fanout: 17},
		{Type: message.M4, Dest: protocol.RoleRequester},
	}}},
	Weights: []float64{1},
}

// TestValidateAdmission has one row per admission rule. A row's configuration
// differs from DefaultConfig in the one field it names, Validate must refuse
// it with an error that names that field (want, when set, is the spelling the
// owning package's message uses instead), and New must refuse it too. The
// rows marked "was" were accepted at the parent commit: New rejected them
// later, panicked, or ran them as something else.
func TestValidateAdmission(t *testing.T) {
	for _, row := range []struct {
		field string
		set   func(*network.Config)
		want  string
	}{
		// Grid shape (topology.CheckGrid). Was: passed Validate, failed in New.
		{"Radix", func(c *network.Config) { c.Radix = nil }, ""},
		{"Radix", func(c *network.Config) { c.Radix = []int{8, 1} }, ""},
		{"Bristling", func(c *network.Config) { c.Bristling = 0 }, ""},
		// Resources and thresholds.
		{"VCs", func(c *network.Config) { c.VCs = 0 }, ""},
		{"VCs", func(c *network.Config) { c.VCs = 65 }, ""},
		{"FlitBuf", func(c *network.Config) { c.FlitBuf = 0 }, ""},
		{"QueueCap", func(c *network.Config) { c.QueueCap = 0 }, ""},
		{"ServiceTime", func(c *network.Config) { c.ServiceTime = 0 }, ""},
		{"DetectThreshold", func(c *network.Config) { c.DetectThreshold = 0 }, ""},
		{"RouterTimeout", func(c *network.Config) { c.RouterTimeout = 0 }, ""},
		{"TokenHopCycles", func(c *network.Config) { c.TokenHopCycles = 0 }, ""},
		// The size bound. Was: out of memory in Network.build, or an overflowed
		// product that passed every check.
		{"Radix", func(c *network.Config) { c.Radix = []int{1 << 20, 1 << 20} }, ""},
		{"Radix", func(c *network.Config) { c.Radix = []int{1 << 40, 1 << 40} }, ""},
		{"Radix", func(c *network.Config) { c.Radix = []int{2048, 2048} }, ""}, // routing table alone
		{"Bristling", func(c *network.Config) { c.Bristling = 1000000 }, ""},
		// A router's ports are 2 per dimension + Bristling, and a routing
		// candidate names one in a byte. Was: built, with 257 ports a router.
		{"Bristling", func(c *network.Config) { c.Radix, c.Bristling = []int{2}, 255 }, ""},
		{"Bristling", func(c *network.Config) { c.Radix, c.Bristling = []int{2, 2}, 253 }, ""},
		// Slab entries count towards the size bound. Was: admitted, and its
		// first routed header built a table of a million rows, 230 MB.
		{"Radix", func(c *network.Config) { c.Radix = []int{32, 32} }, ""},
		{"FlitBuf", func(c *network.Config) { c.FlitBuf = 2000000000 }, ""},
		// A VC counts its flits in 16 bits. Was: admitted up to the size
		// bound, about 2^24 flits a buffer on a small network.
		{"FlitBuf", func(c *network.Config) { c.Radix, c.FlitBuf = []int{2, 2}, router.MaxFlitBuf+1 }, "FlitBuf: 65536-flit VC buffers exceed the limit of 65535"},
		{"QueueCap", func(c *network.Config) { c.QueueCap = 2000000000 }, ""},
		// Counts where a negative used to mean something else. Was: CWGInterval
		// -5 disabled scanning, MaxOutstanding -4 was unbounded,
		// TokenRegenTimeout -1 panicked in token.SetRegenTimeout.
		{"RetryBackoff", func(c *network.Config) { c.RetryBackoff = -1 }, ""},
		{"TokenRegenTimeout", func(c *network.Config) { c.TokenRegenTimeout = -1 }, ""},
		{"MaxOutstanding", func(c *network.Config) { c.MaxOutstanding = -4 }, ""},
		{"CWGInterval", func(c *network.Config) { c.CWGInterval = -5 }, ""},
		{"Warmup", func(c *network.Config) { c.Warmup = -1 }, ""},
		{"MaxDrain", func(c *network.Config) { c.MaxDrain = -1 }, ""},
		{"Measure", func(c *network.Config) { c.Measure = 0 }, ""},
		{"Rate", func(c *network.Config) { c.Rate = math.NaN() }, ""},
		{"Rate", func(c *network.Config) { c.Rate = 1.5 }, ""},
		// Pattern and packet lengths (protocol).
		{"Pattern", func(c *network.Config) { c.Pattern = nil }, ""},
		{"Pattern", func(c *network.Config) { c.Pattern = &protocol.Pattern{Name: "EMPTY"} }, `pattern "EMPTY"`},
		{"Pattern", func(c *network.Config) { c.Pattern = wideFanout }, ""},
		{"Lengths", func(c *network.Config) { c.Lengths.Reply = 0 }, ""}, // was: failed in New
		// A VC names its front flit in 16 bits. Was: admitted at any length.
		{"Lengths", func(c *network.Config) { c.Lengths.Request = router.MaxPacketFlits + 1 }, "Lengths.Request: 65536-flit packets exceed the limit of 65535"},
		{"Lengths", func(c *network.Config) { c.Lengths.Reply = router.MaxPacketFlits + 1 }, "Lengths.Reply"},
		{"Lengths", func(c *network.Config) { c.Lengths.Backoff = router.MaxPacketFlits + 1 }, "Lengths.Backoff"},
		// The scheme's validity envelope (schemes.Check). Was: QueueMode 7 ran
		// per-type, -3 ran the default; an unknown scheme failed in New.
		{"Scheme", func(c *network.Config) { c.Scheme = schemes.Kind(9) }, ""},
		{"Scheme", func(c *network.Config) { c.Scheme = schemes.DR }, "DR is not valid"}, // PAT100 has chain length 2
		{"Scheme", func(c *network.Config) { c.Scheme = schemes.SQ }, ""},                // 16-slot queues are not P x M
		{"SASharedChannels", func(c *network.Config) { c.SASharedChannels = true }, ""},
		{"QueueMode", func(c *network.Config) { c.QueueMode = 7 }, ""},
		{"QueueMode", func(c *network.Config) { c.QueueMode = -3 }, ""},
		// Detector. The CWG scan is the oracle the triggers are judged by, not
		// a trigger itself: was a third Detector value.
		{"Detector", func(c *network.Config) { c.Detector = "bogus" }, ""},
		{"Detector", func(c *network.Config) { c.Detector = "cwg" }, ""},
	} {
		cfg := network.DefaultConfig()
		row.set(&cfg)
		want := row.want
		if want == "" {
			want = row.field
		}
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: Validate() = %v, want an error naming %q", row.field, err, want)
		}
		if _, err := network.New(cfg); err == nil {
			t.Errorf("%s: New built what Validate refuses", row.field)
		}
	}
}

// TestValidateCombinations covers the rules that relate two fields, which no
// single-field departure from the defaults can trip, and the two that relax
// with another field.
func TestValidateCombinations(t *testing.T) {
	for name, c := range map[string]struct {
		set  func(*network.Config)
		want string // "" means the configuration is admitted
	}{
		"SA needs E_r VCs per type": {func(c *network.Config) { c.Scheme, c.Pattern = schemes.SA, protocol.PAT271 }, "VCs"},
		"on a mesh E_r is 1":        {func(c *network.Config) { c.Scheme, c.Pattern, c.Mesh = schemes.SA, protocol.PAT271, true }, ""},
		"SA needs per-type queues":  {func(c *network.Config) { c.Scheme, c.QueueMode = schemes.SA, netiface.QueueShared }, "QueueMode"},
		"DR needs E_r VCs per class": {func(c *network.Config) {
			c.Scheme, c.Pattern, c.VCs = schemes.DR, protocol.PAT271, 3
		}, "VCs"},
		"DR needs class queues": {func(c *network.Config) {
			c.Scheme, c.Pattern, c.QueueMode = schemes.DR, protocol.PAT271, netiface.QueueShared
		}, "QueueMode"},
		"SQ needs a bounded MaxOutstanding": {func(c *network.Config) {
			c.Scheme, c.MaxOutstanding, c.QueueCap = schemes.SQ, 0, 1024
		}, "MaxOutstanding"},
		// The largest system anything in the repository builds.
		"SQ at P x M slots": {func(c *network.Config) { c.Scheme, c.QueueCap = schemes.SQ, 1024 }, ""},
		// The widest routers a candidate's port byte can name.
		"256 ports in one dimension":  {func(c *network.Config) { c.Radix, c.Bristling = []int{2}, 254 }, ""},
		"256 ports in two dimensions": {func(c *network.Config) { c.Radix, c.Bristling = []int{2, 2}, 252 }, ""},
		// The largest square torus at the default 4 VCs under the size bound.
		"21x21":                 {func(c *network.Config) { c.Radix = []int{21, 21} }, ""},
		"probe under avoidance": {func(c *network.Config) { c.Detector, c.Scheme = network.DetectorProbe, schemes.SA }, "Detector"},
		"probe under recovery":  {func(c *network.Config) { c.Detector = network.DetectorProbe }, ""},
		// The deepest buffers and longest packets a VC can count.
		"MaxFlitBuf on a 2x2": {func(c *network.Config) { c.Radix, c.FlitBuf = []int{2, 2}, router.MaxFlitBuf }, ""},
		"MaxPacketFlits": {func(c *network.Config) {
			c.Lengths = protocol.Lengths{Request: router.MaxPacketFlits, Reply: router.MaxPacketFlits, Backoff: router.MaxPacketFlits}
		}, ""},
	} {
		cfg := network.DefaultConfig()
		c.set(&cfg)
		err := cfg.Validate()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: refused: %v", name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: Validate() = %v, want an error naming %s", name, err, c.want)
		}
	}
}

// fuzzConfig spends one byte per field on a few values around each rule's
// edge (the default first), so an admitted configuration is cheap to build
// and the all-zero input is DefaultConfig on a 2x2.
func fuzzConfig(data []byte) network.Config {
	next := func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b) % n
	}
	pick := func(vs ...int) int { return vs[next(len(vs))] }
	def := network.DefaultConfig()
	patterns := []*protocol.Pattern{def.Pattern, protocol.PAT721, protocol.PAT451, protocol.PAT271, protocol.PAT280, protocol.MSI, nil}
	detectors := []string{"", network.DetectorThreshold, "cwg", network.DetectorProbe, "bogus"}
	rates := []float64{0.01, 0, 0.2, 1, -0.5, 1.5, math.NaN()}
	longest := router.MaxPacketFlits
	lengths := []protocol.Lengths{def.Lengths, {Request: 2, Reply: 3, Backoff: 2}, {Request: 0, Reply: 20, Backoff: 4}, {Request: 4, Reply: 20, Backoff: -1},
		{Request: longest, Reply: longest, Backoff: longest}, {Request: 4, Reply: longest + 1, Backoff: 4}}
	cfg := def
	cfg.Radix = make([]int, pick(2, 1, 3, 0))
	for i := range cfg.Radix {
		cfg.Radix[i] = pick(2, 3, 4, 1, 0, -1)
	}
	cfg.Mesh = next(2) == 1
	cfg.Bristling = pick(1, 2, 3, 0, -1, 250, 252, 254, 255)
	cfg.VCs = pick(4, 1, 2, 3, 6, 8, 0, -1, 65)
	cfg.FlitBuf = pick(2, 1, 4, 0, -1, router.MaxFlitBuf, router.MaxFlitBuf+1)
	cfg.QueueCap = pick(16, 1, 2, 4, 64, 0, -1)
	cfg.ServiceTime = pick(40, 1, 4, 0, -1)
	cfg.DetectThreshold = pick(25, 1, 6, 0, -1)
	cfg.RouterTimeout = pick(500, 1, 100, 0, -1)
	cfg.TokenHopCycles = pick(1, 2, 0, -1)
	cfg.RetryBackoff = int64(pick(200, 0, 16, -1))
	cfg.TokenRegenTimeout = int64(pick(0, 50, -1))
	cfg.Scheme = schemes.Kind(pick(int(schemes.PR), int(schemes.SA), int(schemes.DR), int(schemes.SQ), int(schemes.AB), 5, -1))
	cfg.SASharedChannels = next(4) == 1
	cfg.QueueMode = netiface.QueueMode(pick(-1, 0, 1, 2, 3, 7, -2, -3))
	cfg.Pattern = patterns[next(len(patterns))]
	cfg.Lengths = lengths[next(len(lengths))]
	cfg.Rate = rates[next(len(rates))]
	cfg.MaxOutstanding = pick(16, 1, 4, 0, -1, -4)
	cfg.Seed = uint64(pick(1, 2, 0))
	cfg.Warmup = int64(pick(20, 0, -1, -5))
	cfg.Measure = int64(pick(60, 1, 0, -1))
	cfg.MaxDrain = int64(pick(60, 0, -1, -5))
	cfg.CWGInterval = int64(pick(50, 8, 1, 0, -1, -5))
	cfg.Detector = detectors[next(len(detectors))]
	return cfg
}

// specFor spells cfg as a RunSpec when the wire format can: the fields it has
// no key for must sit at the values a spec implies, and a value the spec
// reads as "use the default" (0) or as the sentinel for zero (-1) has no
// spelling of its own.
func specFor(cfg network.Config) (simsvc.RunSpec, bool) {
	def := network.DefaultConfig()
	if cfg.DetectThreshold != def.DetectThreshold || cfg.RouterTimeout != def.RouterTimeout ||
		cfg.TokenHopCycles != def.TokenHopCycles || cfg.RetryBackoff != def.RetryBackoff ||
		cfg.TokenRegenTimeout != 0 || cfg.SASharedChannels || cfg.Lengths != def.Lengths || cfg.Detector != "" {
		return simsvc.RunSpec{}, false
	}
	if cfg.Scheme < schemes.SA || cfg.Scheme > schemes.AB || cfg.Pattern == nil || !cfg.QueueMode.Valid() {
		return simsvc.RunSpec{}, false
	}
	if len(cfg.Radix) == 0 || cfg.Bristling == 0 || cfg.VCs == 0 || cfg.FlitBuf == 0 || cfg.QueueCap == 0 ||
		cfg.ServiceTime == 0 || cfg.Rate == 0 || cfg.Seed == 0 || cfg.Measure == 0 {
		return simsvc.RunSpec{}, false
	}
	sentinel := func(v int64) int64 {
		if v == 0 {
			return -1
		}
		return v
	}
	for _, v := range []int64{cfg.Warmup, cfg.MaxDrain, cfg.CWGInterval, int64(cfg.MaxOutstanding)} {
		if v == -1 {
			return simsvc.RunSpec{}, false
		}
	}
	return simsvc.RunSpec{
		Scheme: cfg.Scheme.String(), Pattern: cfg.Pattern.Name,
		Radix: cfg.Radix, Mesh: cfg.Mesh, Bristling: cfg.Bristling,
		VCs: cfg.VCs, FlitBuf: cfg.FlitBuf, QueueCap: cfg.QueueCap,
		QueueMode:   [...]string{"default", "shared", "class", "type"}[cfg.QueueMode+1],
		ServiceTime: cfg.ServiceTime, Rate: cfg.Rate,
		MaxOutstanding: int(sentinel(int64(cfg.MaxOutstanding))), Seed: cfg.Seed,
		Warmup: sentinel(cfg.Warmup), Measure: cfg.Measure, MaxDrain: sentinel(cfg.MaxDrain),
		CWGInterval: sentinel(cfg.CWGInterval),
	}, true
}

// FuzzConfigAdmission checks that Validate is the whole admission rule: what
// it passes, New builds and steps without error or panic; and the service's
// front end agrees with it in both directions wherever a RunSpec can spell
// the same configuration.
func FuzzConfigAdmission(f *testing.F) {
	f.Add([]byte{}) // DefaultConfig on a 2x2, which a RunSpec can spell
	f.Add(bytes.Repeat([]byte{1}, 32))
	f.Add(bytes.Repeat([]byte{2}, 32))
	f.Add(bytes.Repeat([]byte{3}, 32))
	f.Add([]byte{1, 0, 0, 7})          // radix [2], bristling 254: a router of exactly routing.MaxPorts ports
	f.Add([]byte{1, 0, 0, 8})          // bristling 255: one port more than a candidate can name
	f.Add([]byte{0, 0, 0, 0, 0, 0, 5}) // FlitBuf router.MaxFlitBuf on the 2x2: the deepest buffer a VC counts
	f.Add([]byte{0, 0, 0, 0, 0, 0, 6}) // one flit deeper
	f.Add(append(make([]byte, 18), 4)) // every packet router.MaxPacketFlits long
	f.Add(append(make([]byte, 18), 5)) // a reply one flit longer
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := fuzzConfig(data)
		verr := cfg.Validate()
		if verr == nil {
			n, err := network.New(cfg)
			if err != nil {
				t.Fatalf("Validate passed %+v but New failed: %v", cfg, err)
			}
			n.RunCycles(64)
		}
		if spec, ok := specFor(cfg); ok {
			if _, nerr := spec.Normalized(); (nerr == nil) != (verr == nil) {
				t.Fatalf("front ends disagree on %+v: Validate() = %v, RunSpec%+v.Normalized() = %v", cfg, verr, spec, nerr)
			}
		}
	})
}
