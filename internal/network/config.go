// Package network assembles the full simulated system: the torus of wormhole
// routers, the network interfaces with their message queues and memory
// controllers, the handling scheme's resource policy, the traffic source,
// the circulating-token progressive-recovery engine, and the channel-wait-
// for-graph deadlock observer. It steps everything cycle by cycle and
// gathers the statistics the paper reports.
package network

import (
	"fmt"

	"repro/internal/netiface"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/schemes"
)

// Config holds every simulation parameter. Defaults mirror Table 2.
type Config struct {
	// Radix gives per-dimension router counts (default 8x8 torus).
	Radix []int
	// Mesh drops the wraparound links (a mesh instead of a torus); escape
	// subnetworks then need only one virtual channel (E_r = 1), relaxing
	// every scheme's validity envelope.
	Mesh bool
	// Bristling is processors per router (default 1).
	Bristling int
	// VCs is virtual channels per physical link (default 4).
	VCs int
	// FlitBuf is flit buffers per virtual channel (default 2).
	FlitBuf int
	// QueueCap is the message-queue size at endpoints (default 16).
	QueueCap int
	// ServiceTime is memory-controller occupancy per message (default 40).
	ServiceTime int
	// DetectThreshold is the endpoint detector persistence threshold in
	// cycles (default 25, the paper's assumption).
	DetectThreshold int
	// RouterTimeout is the fallback header-blocked timeout for
	// router-level rescue eligibility under progressive recovery; the
	// primary trigger is CWG knot membership (scanned every CWGInterval
	// cycles), so this is set large to avoid rescuing merely congested
	// packets when scans are disabled.
	RouterTimeout int
	// TokenHopCycles is the token's ring-hop time (default 1).
	TokenHopCycles int
	// RetryBackoff is the regressive-recovery (AB) retry delay base in
	// cycles; killed messages are re-injected after RetryBackoff plus a
	// per-transaction jitter. Ignored by the other schemes.
	RetryBackoff int64
	// TokenRegenTimeout arms the token-loss watchdog (cycles a missing
	// token is tolerated before regeneration at router 0); 0 disables.
	// Losses only occur through explicit fault injection.
	TokenRegenTimeout int64
	// Scheme selects the deadlock-handling technique.
	Scheme schemes.Kind
	// SASharedChannels enables the reference-[21] SA variant: per-type
	// escape pairs with all remaining channels shared among types
	// (availability 1 + (C - E_m) instead of 1 + (C/L - E_r)).
	SASharedChannels bool
	// QueueMode overrides the scheme's canonical endpoint queue
	// arrangement when >= 0 (Figure 11's ablation); pass -1 for default.
	QueueMode netiface.QueueMode
	// Pattern is the transaction pattern (Table 3).
	Pattern *protocol.Pattern
	// Lengths are packet lengths per protocol role.
	Lengths protocol.Lengths
	// Rate is the request-generation probability per node per cycle for
	// the built-in synthetic source (ignored when a custom source is
	// installed via NewWithSource).
	Rate float64
	// MaxOutstanding bounds in-flight transactions per node (the MSHR
	// count; requests are only issued with a preallocated sink, Section
	// 3's assumption). Zero disables the bound. Default 16 matches the
	// message-queue depth, as in the Origin2000's reply preallocation.
	MaxOutstanding int
	// Seed drives all randomness.
	Seed uint64
	// Warmup, Measure, MaxDrain configure the run phases in cycles.
	Warmup, Measure, MaxDrain int64
	// CWGInterval is the channel-wait-for-graph scan period in cycles
	// (paper: every 50); 0 disables scanning.
	CWGInterval int64
	// Detector selects what triggers the scheme's recovery action (the
	// detection-mechanism ablation axis). The handling scheme is unchanged;
	// only the trigger moves:
	//
	//	"threshold" (or ""): the endpoint persistence counter — an NI whose
	//	    service has stalled DetectThreshold+1 consecutive cycles fires.
	//	    The paper's in-band heuristic; cheap, local, congestion-prone.
	//	"cwg": the centralized scan — recovery fires for each endpoint
	//	    input queue the scan places inside a knot. Oracle-precise but
	//	    out-of-band and quantized to CWGInterval.
	//	"probe": distributed Chandy–Misra–Haas edge chasing — threshold
	//	    firings launch in-band probes along wait edges, and only a
	//	    probe returning to its blocked origin triggers recovery.
	//	    Precise like cwg, in-band like threshold, paid in probe flits.
	Detector string
}

// Detector mode names accepted by Config.Detector.
const (
	DetectorThreshold = "threshold"
	DetectorCWG       = "cwg"
	DetectorProbe     = "probe"
)

// DefaultConfig returns the paper's Table 2 defaults with PR handling and a
// modest measurement window (experiments override Warmup/Measure for
// full-length runs).
func DefaultConfig() Config {
	return Config{
		Radix:           []int{8, 8},
		Bristling:       1,
		VCs:             4,
		FlitBuf:         2,
		QueueCap:        16,
		ServiceTime:     40,
		DetectThreshold: 25,
		RouterTimeout:   500,
		RetryBackoff:    200,
		TokenHopCycles:  1,
		Scheme:          schemes.PR,
		QueueMode:       -1,
		Pattern:         protocol.PAT100,
		Lengths:         protocol.DefaultLengths,
		Rate:            0.001,
		MaxOutstanding:  16,
		Seed:            1,
		Warmup:          5000,
		Measure:         30000,
		MaxDrain:        20000,
		CWGInterval:     50,
	}
}

// Validate checks parameter sanity beyond what the scheme resolver enforces.
func (c *Config) Validate() error {
	if len(c.Radix) == 0 {
		return fmt.Errorf("network: empty radix")
	}
	if c.VCs < 1 || c.FlitBuf < 1 || c.QueueCap < 1 || c.ServiceTime < 1 {
		return fmt.Errorf("network: non-positive resource parameter")
	}
	if c.VCs > router.MaxVCs {
		return fmt.Errorf("network: %d virtual channels per link exceed the limit of %d", c.VCs, router.MaxVCs)
	}
	if c.DetectThreshold < 1 || c.RouterTimeout < 1 || c.TokenHopCycles < 1 {
		return fmt.Errorf("network: non-positive threshold parameter")
	}
	if c.Pattern == nil {
		return fmt.Errorf("network: nil pattern")
	}
	if mf := c.Pattern.MaxFanout(); mf > c.QueueCap {
		return fmt.Errorf("network: pattern fanout %d exceeds queue capacity %d; such a subordinate burst could never be serviced", mf, c.QueueCap)
	}
	if c.Scheme == schemes.SQ {
		// Sufficient-queue avoidance is only sound when queues can hold
		// every message the system can supply: P x M slots (the O(P x M)
		// scalability cost the paper attributes to this technique).
		if c.MaxOutstanding <= 0 {
			return fmt.Errorf("network: SQ requires a bounded per-node outstanding count")
		}
		endpoints := c.Bristling
		for _, r := range c.Radix {
			endpoints *= r
		}
		if need := endpoints * c.MaxOutstanding; c.QueueCap < need {
			return fmt.Errorf("network: SQ needs QueueCap >= endpoints x outstanding = %d, got %d", need, c.QueueCap)
		}
	}
	if !(c.Rate >= 0 && c.Rate <= 1) { // written so that NaN fails it
		return fmt.Errorf("network: rate %v out of [0,1]", c.Rate)
	}
	switch c.Detector {
	case "", DetectorThreshold:
	case DetectorCWG:
		if c.CWGInterval <= 0 {
			return fmt.Errorf("network: detector %q needs CWGInterval > 0 (scans are its only trigger)", c.Detector)
		}
	case DetectorProbe:
		if c.Scheme == schemes.SA || c.Scheme == schemes.SQ {
			return fmt.Errorf("network: detector %q is incompatible with avoidance scheme %v (no recovery path to trigger)", c.Detector, c.Scheme)
		}
	default:
		return fmt.Errorf("network: unknown detector %q (want threshold, cwg, or probe)", c.Detector)
	}
	if c.Warmup < 0 || c.Measure <= 0 || c.MaxDrain < 0 {
		return fmt.Errorf("network: bad run phases")
	}
	return nil
}
