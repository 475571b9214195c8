package mc

import (
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/schemes"
)

// TinyConfig returns the canonical model-checking network for a scheme: a
// 2x2 torus shrunk until every resource is scarce enough that one or two
// transactions exercise blocking, detection, and recovery, yet the state
// space stays enumerable. DR and AB are given the Origin-style PAT280
// pattern (their validity envelopes require chains longer than two); the
// others get pure request-reply PAT100.
func TinyConfig(kind schemes.Kind) network.Config {
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

// CrossingTxns scripts the canonical two-transaction workload: opposed
// corner-to-corner request-reply pairs whose worms must cross in the middle
// of the 2x2 torus, the smallest workload that can close a channel-wait
// cycle. The template index is chosen per pattern (the chain-2 template for
// PAT100, the chain-3 Origin template for PAT280 so third-party traffic is
// exercised too).
func CrossingTxns(cfg network.Config) []TxnSpec {
	tmpl := 0
	if cfg.Pattern.Name == protocol.PAT280.Name {
		tmpl = 1 // Chain3Origin: exercises third-party traffic too
	}
	// Every template takes exactly one third party (chain-2 carries it
	// unused); endpoints 1 and 2 keep it distinct from both homes.
	return []TxnSpec{
		{Template: tmpl, Requester: 0, Home: 3, Thirds: []int{1}, Earliest: 0},
		{Template: tmpl, Requester: 3, Home: 0, Thirds: []int{2}, Earliest: 0},
	}
}

// SingleTxn scripts the one-transaction workload used by the CI smoke run.
func SingleTxn(cfg network.Config) []TxnSpec {
	tmpl := 0
	if cfg.Pattern.Name == protocol.PAT280.Name {
		tmpl = 1
	}
	return []TxnSpec{{Template: tmpl, Requester: 0, Home: 3, Thirds: []int{1}, Earliest: 0}}
}

// EntangledConfig hardens the tiny network until endpoint detection actually
// fires: single-slot message queues and a slow memory controller under the
// chain-3 Origin pattern, so third-party forwards pile up behind busy homes
// and queue-blocked streaks cross the detection threshold. The space stays
// exhaustively enumerable while exercising detection and recovery paths.
func EntangledConfig(kind schemes.Kind) network.Config {
	cfg := TinyConfig(kind)
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

// GridlockConfig hardens the tiny network until a true message-dependent
// deadlock is reachable, making detector-driven recovery load-bearing: with
// single-slot queues, single-flit channel buffers, and forwards longer than
// an entire source-to-sink fabric path, a home's stuck forward pins its
// output queue, which blocks servicing the next request, which keeps the
// input queue full, which blocks the opposite home's forward ejecting — and
// the same chain runs the other way. The knot closes through each worm's
// committed VC chain, so extra VCs offer no escape. RouterTimeout is pushed
// past every detection deadline so the only recovery trigger is the
// configured detector; suppressing it (BugSuppressDetect/BugSuppressProbe)
// turns the space into a missed-deadlock counterexample factory. Explore
// this space with tight nondeterminism (InjectWindow/Rotations 1,
// DelayRescue off): under wider adversarial schedules PR's rescue thrashes
// without converging — with the threshold detector as much as with probes —
// and every path ends in unrecovered-deadlock instead of the property under
// test. Use EntangledTxns as the workload: its two mutually-forwarding homes
// are exactly the cycle the lengths above are tuned to close.
func GridlockConfig(kind schemes.Kind) network.Config {
	cfg := TinyConfig(kind)
	cfg.Pattern = protocol.PAT280
	cfg.FlitBuf = 1
	cfg.QueueCap = 1
	cfg.ServiceTime = 2
	cfg.MaxOutstanding = 2
	cfg.RouterTimeout = 2000
	cfg.Lengths = protocol.Lengths{Request: 6, Reply: 3, Backoff: 2}
	return cfg
}

// EntangledTxns scripts EntangledConfig's workload: two requesters each
// issue two chain-3 transactions whose homes forward third-party requests at
// each other.
func EntangledTxns() []TxnSpec {
	return []TxnSpec{
		{Template: 1, Requester: 0, Home: 1, Thirds: []int{2}, Earliest: 0},
		{Template: 1, Requester: 3, Home: 2, Thirds: []int{1}, Earliest: 0},
		{Template: 1, Requester: 0, Home: 1, Thirds: []int{2}, Earliest: 2},
		{Template: 1, Requester: 3, Home: 2, Thirds: []int{1}, Earliest: 2},
	}
}
