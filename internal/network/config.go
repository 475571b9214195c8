// Package network assembles the full simulated system: the torus of wormhole
// routers, the network interfaces with their message queues and memory
// controllers, the handling scheme's resource policy, the traffic source,
// the circulating-token progressive-recovery engine, and the channel-wait-
// for-graph deadlock observer. It steps everything cycle by cycle and
// gathers the statistics the paper reports.
package network

import (
	"fmt"

	"repro/internal/message"
	"repro/internal/netiface"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/schemes"
	"repro/internal/topology"
)

// Config holds every simulation parameter. Defaults mirror Table 2. It is the
// one description of a run's configuration: Validate is the only admission
// check (New builds whatever it passes), and the JSON form — the "cfg" object
// of a model-checker counterexample file, scheme and pattern by canonical
// name — is the only text form. A simsvc.RunSpec, which netsim's flags and
// the service's API spell, is the front end that fills in a Config (README,
// "One run description").
type Config struct {
	// Radix gives per-dimension router counts (default 8x8 torus).
	Radix []int `json:"radix"`
	// Mesh drops the wraparound links (a mesh instead of a torus); escape
	// subnetworks then need only one virtual channel (E_r = 1), relaxing
	// every scheme's validity envelope.
	Mesh bool `json:"mesh,omitempty"`
	// Bristling is processors per router (default 1).
	Bristling int `json:"bristling"`
	// VCs is virtual channels per physical link (default 4).
	VCs int `json:"vcs"`
	// FlitBuf is flit buffers per virtual channel (default 2).
	FlitBuf int `json:"flit_buf"`
	// QueueCap is the message-queue size at endpoints (default 16).
	QueueCap int `json:"queue_cap"`
	// ServiceTime is memory-controller occupancy per message (default 40).
	ServiceTime int `json:"service_time"`
	// DetectThreshold is the endpoint detector persistence threshold in
	// cycles (default 25, the paper's assumption).
	DetectThreshold int `json:"detect_threshold"`
	// RouterTimeout is the fallback header-blocked timeout for
	// router-level rescue eligibility under progressive recovery; the
	// primary trigger is CWG knot membership (scanned every CWGInterval
	// cycles), so this is set large to avoid rescuing merely congested
	// packets when scans are disabled.
	RouterTimeout int `json:"router_timeout"`
	// TokenHopCycles is the token's ring-hop time (default 1).
	TokenHopCycles int `json:"token_hop_cycles"`
	// RetryBackoff is the regressive-recovery (AB) retry delay base in
	// cycles; killed messages are re-injected after RetryBackoff plus a
	// per-transaction jitter. Ignored by the other schemes.
	RetryBackoff int64 `json:"retry_backoff"`
	// TokenRegenTimeout arms the token-loss watchdog (cycles a missing
	// token is tolerated before regeneration at router 0); 0 disables.
	// Losses only occur through explicit fault injection.
	TokenRegenTimeout int64 `json:"token_regen_timeout,omitempty"`
	// Scheme selects the deadlock-handling technique.
	Scheme schemes.Kind `json:"scheme"`
	// SASharedChannels enables the reference-[21] SA variant: per-type
	// escape pairs with all remaining channels shared among types
	// (availability 1 + (C - E_m) instead of 1 + (C/L - E_r)).
	SASharedChannels bool `json:"sa_shared_channels,omitempty"`
	// QueueMode overrides the scheme's canonical endpoint queue
	// arrangement when >= 0 (Figure 11's ablation); pass -1 for default.
	// The text form keeps the number; netiface.QueueModeByName holds the
	// names the flag and the RunSpec key take.
	QueueMode netiface.QueueMode `json:"queue_mode"`
	// Pattern is the transaction pattern (Table 3).
	Pattern *protocol.Pattern `json:"pattern"`
	// Lengths are packet lengths per protocol role.
	Lengths protocol.Lengths `json:"lengths"`
	// Rate is the request-generation probability per node per cycle for
	// the built-in synthetic source (ignored when a custom source is
	// installed via NewWithSource).
	Rate float64 `json:"rate,omitempty"`
	// MaxOutstanding bounds in-flight transactions per node (the MSHR
	// count; requests are only issued with a preallocated sink, Section
	// 3's assumption). Zero disables the bound. Default 16 matches the
	// message-queue depth, as in the Origin2000's reply preallocation.
	MaxOutstanding int `json:"max_outstanding"`
	// Seed drives all randomness.
	Seed uint64 `json:"seed"`
	// Warmup, Measure, MaxDrain configure the run phases in cycles. Like
	// Rate they are absent from a counterexample file: the model checker
	// owns the clock and the workload.
	Warmup   int64 `json:"warmup,omitempty"`
	Measure  int64 `json:"measure,omitempty"`
	MaxDrain int64 `json:"max_drain,omitempty"`
	// CWGInterval is the channel-wait-for-graph scan period in cycles
	// (paper: every 50); 0 disables scanning.
	CWGInterval int64 `json:"cwg_interval"`
	// Detector selects what triggers the scheme's recovery action (the
	// detection-mechanism ablation axis). The handling scheme is unchanged;
	// only the trigger moves:
	//
	//	"threshold" (or ""): the endpoint persistence counter — an NI whose
	//	    service has stalled DetectThreshold+1 consecutive cycles fires.
	//	    The paper's in-band heuristic; cheap, local, congestion-prone.
	//	"probe": distributed Chandy–Misra–Haas edge chasing — threshold
	//	    firings launch in-band probes along wait edges, and only a
	//	    probe returning to its blocked origin triggers recovery.
	//	    Precise but for stale returns, in-band, paid in probe flits.
	//
	// The CWG scan never dispatches endpoint recovery: it is the oracle both
	// triggers are judged by (DESIGN §7). It does gate PR's router captures:
	// a header is rescuable once the scan flags its VC knotted, or past
	// RouterTimeout without one (Router.RescuablePackets).
	Detector string `json:"detector,omitempty"`
}

// A routing candidate's VC field holds any index a channel can have.
const _ = uint(routing.MaxVCs - router.MaxVCs)

// Detector mode names accepted by Config.Detector.
const (
	DetectorThreshold = "threshold"
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
		QueueMode:       netiface.QueueDefault,
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

// MaxSystemSlots bounds the storage a configuration may ask New to lay out,
// counted in slots: the routing-candidate table as buildCandTable builds it —
// one offset per row (endpoints x routers x at most 2 x message types
// combos) plus the slab sized at routing.MaxCandidates per row, never more
// than VCs x dimensions — flit buffers (channels x VCs x FlitBuf) and endpoint
// queue entries (endpoints x 2 x QueueCap, an input and an output queue; a
// scheme with per-type queues has up to four of each, which the headroom
// absorbs). Slab entries are counted, so the table's uint32 offsets cannot
// overflow in anything admitted. The largest system any experiment, test or
// benchmark here builds — an 8x8 torus under SQ with 1,024-slot queues —
// counts 429,056, so the bound is 39 times that, while a hostile radix or
// queue size is refused before anything is allocated. The same bound caps
// the process-wide memo of shared candidate tables (candtable.go): it evicts
// the least recently used tables to hold at most MaxSystemSlots table slots,
// the most one admitted configuration may already ask for, so any admitted
// table fits. It is a constant because no two callers need different values.
const MaxSystemSlots = 1 << 24

// Size returns the router and endpoint counts the configuration describes.
// It is meaningful once Validate has passed (which also rules out overflow).
func (c *Config) Size() (routers, endpoints int) {
	routers = 1
	for _, r := range c.Radix {
		routers *= r
	}
	return routers, routers * c.Bristling
}

// slots multiplies counts that are each at least 1, reporting whether the
// product stays inside MaxSystemSlots (and so cannot overflow).
func slots(factors ...int) (int, bool) {
	p := 1
	for _, f := range factors {
		if p > MaxSystemSlots/f {
			return 0, false
		}
		p *= f
	}
	return p, true
}

// checkSize enforces MaxSystemSlots, blaming the field whose term crossed it.
func (c *Config) checkSize() error {
	over := func(field string) error {
		return fmt.Errorf("network: %s asks for a system over the bound of %d routing-table, buffer and queue slots (Radix %v, Bristling %d, VCs %d, FlitBuf %d, QueueCap %d)",
			field, MaxSystemSlots, c.Radix, c.Bristling, c.VCs, c.FlitBuf, c.QueueCap)
	}
	routers, ok := slots(c.Radix...)
	if !ok {
		return over("Radix")
	}
	total := 0
	for _, term := range [...]struct {
		field   string
		factors [4]int
	}{
		// A row per (combo, destination endpoint, router): its offset and its
		// share of the slab. The last factor is small: Validate has bounded
		// VCs, and the router count just bounded the dimensions.
		{"Radix x Bristling", [4]int{routers, c.Bristling, routers, 2 * int(message.NumTypes) * (1 + c.VCs*len(c.Radix))}},
		// A router has a link per direction plus an injection and an
		// ejection channel per local endpoint.
		{"FlitBuf", [4]int{routers, 2*len(c.Radix) + 2*c.Bristling, c.VCs, c.FlitBuf}},
		{"QueueCap", [4]int{routers, c.Bristling, 2, c.QueueCap}},
	} {
		n, ok := slots(term.factors[:]...)
		if total += n; !ok || total > MaxSystemSlots {
			return over(term.field)
		}
	}
	return nil
}

// Validate is the admission check: it passes exactly the configurations New
// can build, and each error names the field at fault. Rules whose reason
// lives in another package are that package's check (topology.CheckGrid,
// schemes.Check, protocol.Lengths.Validate); nothing is built here.
func (c *Config) Validate() error {
	if err := topology.CheckGrid(c.Radix, c.Bristling); err != nil {
		return err
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"VCs", c.VCs}, {"FlitBuf", c.FlitBuf}, {"QueueCap", c.QueueCap}, {"ServiceTime", c.ServiceTime},
		{"DetectThreshold", c.DetectThreshold}, {"RouterTimeout", c.RouterTimeout}, {"TokenHopCycles", c.TokenHopCycles},
	} {
		if f.v < 1 {
			return fmt.Errorf("network: %s must be at least 1, got %d", f.name, f.v)
		}
	}
	if c.VCs > router.MaxVCs {
		return fmt.Errorf("network: VCs: %d virtual channels per link exceed the limit of %d", c.VCs, router.MaxVCs)
	}
	if c.FlitBuf > router.MaxFlitBuf {
		return fmt.Errorf("network: FlitBuf: %d-flit VC buffers exceed the limit of %d", c.FlitBuf, router.MaxFlitBuf)
	}
	// A routing candidate names its output port in a routing.PortVC field.
	if ports := 2*len(c.Radix) + c.Bristling; ports > routing.MaxPorts {
		return fmt.Errorf("network: Bristling %d gives a router %d ports (2 per dimension + Bristling), over the limit of %d",
			c.Bristling, ports, routing.MaxPorts)
	}
	if err := c.checkSize(); err != nil {
		return err
	}
	for _, f := range []struct {
		name string
		v    int64
		why  string
	}{
		{"RetryBackoff", c.RetryBackoff, "a retry delay"},
		{"TokenRegenTimeout", c.TokenRegenTimeout, "0 disables the watchdog"},
		{"MaxOutstanding", int64(c.MaxOutstanding), "0 is unbounded"},
		{"CWGInterval", c.CWGInterval, "0 disables scanning"},
		{"Warmup", c.Warmup, "cycles"},
		{"MaxDrain", c.MaxDrain, "cycles"},
	} {
		if f.v < 0 {
			return fmt.Errorf("network: %s must be >= 0 (%s), got %d", f.name, f.why, f.v)
		}
	}
	if c.Measure < 1 {
		return fmt.Errorf("network: Measure must be at least 1 cycle, got %d", c.Measure)
	}
	if !(c.Rate >= 0 && c.Rate <= 1) { // written so that NaN fails it
		return fmt.Errorf("network: Rate %v is not a probability in [0,1]", c.Rate)
	}
	if c.Pattern == nil {
		return fmt.Errorf("network: nil Pattern")
	}
	if err := schemes.Check(c.Scheme, c.Pattern, c.VCs, c.QueueMode, c.SASharedChannels, topology.EscapeVCs(!c.Mesh)); err != nil {
		return err
	}
	if err := c.Lengths.Validate(); err != nil {
		return err
	}
	for _, l := range []struct {
		name string
		v    int
	}{{"Request", c.Lengths.Request}, {"Reply", c.Lengths.Reply}, {"Backoff", c.Lengths.Backoff}} {
		if l.v > router.MaxPacketFlits {
			return fmt.Errorf("network: Lengths.%s: %d-flit packets exceed the limit of %d", l.name, l.v, router.MaxPacketFlits)
		}
	}
	if mf := c.Pattern.MaxFanout(); mf > c.QueueCap {
		return fmt.Errorf("network: Pattern fanout %d exceeds QueueCap %d; such a subordinate burst could never be serviced", mf, c.QueueCap)
	}
	if c.Scheme == schemes.SQ {
		// Sufficient-queue avoidance is only sound when queues can hold
		// every message the system can supply: P x M slots (the O(P x M)
		// scalability cost the paper attributes to this technique).
		if c.MaxOutstanding == 0 {
			return fmt.Errorf("network: Scheme SQ requires a bounded MaxOutstanding")
		}
		_, endpoints := c.Size()
		if need := endpoints * c.MaxOutstanding; c.QueueCap < need {
			return fmt.Errorf("network: Scheme SQ needs QueueCap >= endpoints x MaxOutstanding = %d, got %d", need, c.QueueCap)
		}
	}
	switch c.Detector {
	case "", DetectorThreshold:
	case DetectorProbe:
		if c.Scheme == schemes.SA || c.Scheme == schemes.SQ {
			return fmt.Errorf("network: Detector %q is incompatible with avoidance Scheme %v (no recovery path to trigger)", c.Detector, c.Scheme)
		}
	default:
		return fmt.Errorf("network: unknown Detector %q (want threshold or probe)", c.Detector)
	}
	return nil
}
