package mc

import (
	"fmt"
	"strings"

	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/schemes"
)

// A Space is one model-checking space: the tiny network each scheme is
// checked on, the scripted transactions, and the exploration settings the
// space is explored under (see the Options fields of the same names).
type Space struct {
	Name string
	// Net returns the space's network for a scheme, with the default
	// detector.
	Net func(schemes.Kind) network.Config
	// Txns scripts the workload on a network Net returned.
	Txns func(network.Config) []TxnSpec

	InjectWindow int64
	Rotations    int
	DelayRescue  bool
	StrictDetect bool
}

// Spaces is every space the model checker explores. cmd/modelcheck runs its
// rows by name, and TestExhaustedSpacesPinned pins each row's exact shape.
var Spaces = []Space{
	// The one-transaction workload of the CI smoke run.
	{Name: "single", Net: tinyConfig, Txns: singleTxn,
		InjectWindow: 4, Rotations: 2, DelayRescue: true, StrictDetect: true},
	{Name: "crossing", Net: tinyConfig, Txns: crossingTxns,
		InjectWindow: 4, Rotations: 2, DelayRescue: true, StrictDetect: true},
	// Detection fires here the way the paper's heuristic does: on
	// queue-blocked streaks, which congestion produces without a true knot.
	// Strict mode would flag every such (deliberately conservative)
	// detection, so it is off.
	{Name: "entangled", Net: entangledConfig, Txns: entangledTxns,
		InjectWindow: 4, Rotations: 2, DelayRescue: true},
	// The true-deadlock space needs tight nondeterminism: under wider
	// adversarial schedules PR's rescue thrashes without converging — with
	// the threshold detector as much as with probes — and every path ends in
	// unrecovered-deadlock instead of the property under test.
	{Name: "gridlock", Net: gridlockConfig, Txns: entangledTxns,
		InjectWindow: 1, Rotations: 1},
}

// SpaceNamed looks a space up in Spaces.
func SpaceNamed(name string) (Space, error) {
	var names []string
	for _, s := range Spaces {
		if s.Name == name {
			return s, nil
		}
		names = append(names, s.Name)
	}
	return Space{}, fmt.Errorf("mc: unknown space %q (want %s)", name, strings.Join(names, ", "))
}

// Options returns the options that explore the space for one scheme. The
// budgets, the bug and the detector are left at their defaults.
func (s Space) Options(kind schemes.Kind) Options {
	net := s.Net(kind)
	return Options{
		Net:          net,
		Txns:         s.Txns(net),
		InjectWindow: s.InjectWindow,
		Rotations:    s.Rotations,
		DelayRescue:  s.DelayRescue,
		StrictDetect: s.StrictDetect,
	}
}

// tinyConfig returns the canonical model-checking network for a scheme: a
// 2x2 torus shrunk until every resource is scarce enough that one or two
// transactions exercise blocking, detection, and recovery, yet the state
// space stays enumerable. DR and AB are given the Origin-style PAT280
// pattern (their validity envelopes require chains longer than two); the
// others get pure request-reply PAT100.
func tinyConfig(kind schemes.Kind) network.Config {
	cfg := network.DefaultConfig()
	cfg.Radix = []int{2, 2}
	cfg.VCs = 4
	cfg.FlitBuf = 2
	cfg.QueueCap = 2
	cfg.ServiceTime = 2
	cfg.DetectThreshold = 6
	cfg.RouterTimeout = 100
	cfg.CWGInterval = 8
	cfg.RetryBackoff = 16
	cfg.Lengths = protocol.Lengths{Request: 2, Reply: 3, Backoff: 2}
	cfg.MaxOutstanding = 1
	cfg.Scheme = kind
	switch kind {
	case schemes.DR, schemes.AB:
		cfg.Pattern = protocol.PAT280
	default:
		cfg.Pattern = protocol.PAT100
	}
	return cfg
}

// originTemplate is the template index the scripted workloads use on cfg's
// pattern: the chain-3 Origin template on PAT280, so third-party traffic is
// exercised too, and the chain-2 template otherwise.
func originTemplate(cfg network.Config) int {
	if cfg.Pattern.Name == protocol.PAT280.Name {
		return 1
	}
	return 0
}

// crossingTxns scripts the canonical two-transaction workload: opposed
// corner-to-corner request-reply pairs whose worms must cross in the middle
// of the 2x2 torus, the smallest workload that can close a channel-wait
// cycle.
func crossingTxns(cfg network.Config) []TxnSpec {
	tmpl := originTemplate(cfg)
	// Every template takes exactly one third party (chain-2 carries it
	// unused); endpoints 1 and 2 keep it distinct from both homes.
	return []TxnSpec{
		{Template: tmpl, Requester: 0, Home: 3, Thirds: []int{1}, Earliest: 0},
		{Template: tmpl, Requester: 3, Home: 0, Thirds: []int{2}, Earliest: 0},
	}
}

// singleTxn scripts the first of crossingTxns alone.
func singleTxn(cfg network.Config) []TxnSpec {
	return crossingTxns(cfg)[:1]
}

// entangledConfig hardens the tiny network until endpoint detection actually
// fires: single-slot message queues and a slow memory controller under the
// chain-3 Origin pattern, so third-party forwards pile up behind busy homes
// and queue-blocked streaks cross the detection threshold. The space stays
// exhaustively enumerable while exercising detection and recovery paths.
func entangledConfig(kind schemes.Kind) network.Config {
	cfg := tinyConfig(kind)
	cfg.Pattern = protocol.PAT280
	cfg.QueueCap = 1
	cfg.ServiceTime = 12
	if kind == schemes.SA {
		// Strict avoidance's validity envelope needs two VCs per message
		// type, and PAT280 has three types in flight.
		cfg.VCs = 6
	}
	return cfg
}

// gridlockConfig hardens the tiny network until a true message-dependent
// deadlock is reachable, making detector-driven recovery load-bearing: with
// single-slot queues, single-flit channel buffers, and forwards longer than
// an entire source-to-sink fabric path, a home's stuck forward pins its
// output queue, which blocks servicing the next request, which keeps the
// input queue full, which blocks the opposite home's forward ejecting — and
// the same chain runs the other way. The knot closes through each worm's
// committed VC chain, so extra VCs offer no escape. RouterTimeout is pushed
// past every detection deadline so the only recovery trigger is the
// configured detector; suppressing it (BugSuppressDetect/BugSuppressProbe)
// turns the space into a missed-deadlock counterexample factory. Its
// workload is entangledTxns: two mutually-forwarding homes are exactly the
// cycle the lengths above are tuned to close.
func gridlockConfig(kind schemes.Kind) network.Config {
	cfg := tinyConfig(kind)
	cfg.Pattern = protocol.PAT280
	cfg.FlitBuf = 1
	cfg.QueueCap = 1
	cfg.ServiceTime = 2
	cfg.MaxOutstanding = 2
	cfg.RouterTimeout = 2000
	cfg.Lengths = protocol.Lengths{Request: 6, Reply: 3, Backoff: 2}
	return cfg
}

// entangledTxns scripts entangledConfig's workload (every network it runs on
// has the PAT280 pattern): two requesters each issue two chain-3
// transactions whose homes forward third-party requests at each other.
func entangledTxns(network.Config) []TxnSpec {
	return []TxnSpec{
		{Template: 1, Requester: 0, Home: 1, Thirds: []int{2}, Earliest: 0},
		{Template: 1, Requester: 3, Home: 2, Thirds: []int{1}, Earliest: 0},
		{Template: 1, Requester: 0, Home: 1, Thirds: []int{2}, Earliest: 2},
		{Template: 1, Requester: 3, Home: 2, Thirds: []int{1}, Earliest: 2},
	}
}
