// Package mc is a bounded explicit-state model checker for the simulator's
// deadlock-handling schemes. It drives a tiny network (2x2 or 3x3 tori, one
// or two scripted transactions) through every schedule its nondeterminism
// model can produce, dedupes states by canonical hash, and checks three
// properties against an independent ground-truth oracle (the check package's
// channel-wait-for-graph rebuild, which shares no code with the runtime
// detector). A detection is a recovery dispatch (Network.OnDispatch). Every
// path carries a check.Judge, the runtime checker's recovery judge, which
// returns every verdict below but false-detection:
//
//  1. Every reachable true deadlock is eventually detected: a path on which
//     the oracle sees a knot but no dispatch follows within
//     check.MissedBound is a "missed-deadlock" violation (under SA or SQ,
//     any knot at all is an "avoidance-violated" violation — strict
//     avoidance must never deadlock).
//  2. Every dispatch is sound: one at an input queue that is not blocked is
//     an "unblocked-dispatch" violation, and in strict mode one in a
//     transition that began with no knot is a "false-detection" violation.
//  3. Recovery terminates with all packets delivered: every explored path
//     must reach quiescence with every scripted transaction completed
//     within the cycle budget; paths that exhaust it are judged by what the
//     oracle still sees ("missed-deadlock" for a knot no dispatch was
//     credited to, "unrecovered-deadlock" for one that survived a
//     dispatch, "no-progress" with no knot).
//
// The nondeterminism model enumerates, at every cycle boundary:
//
//   - injection timing: each scripted transaction may be released at any
//     cycle in [Earliest, Earliest+InjectWindow], after which release is
//     forced (keeping the choice tree finite);
//   - arbitration order: at contended cycles (two or more occupied input
//     VCs at one router, or competing endpoint queues), every round-robin
//     cursor in the system is rotated by k for each k in [0, Rotations) —
//     rotating cursors before a cycle reproduces the arbitration orders a
//     different interleaving history would have produced;
//   - recovery scheduling: when an endpoint requests rescue service and the
//     recovery engine is idle, the engine's next step may be deferred by
//     one cycle, exploring detection/recovery interleavings.
//
// The exploration is exhaustive with respect to this model: within the
// configured bounds every reachable choice combination is either explored
// or merged into an already-visited canonical state. Violating paths are
// serialized as deterministic JSON schedules (Counterexample) that replay
// bit-identically through ReplaySchedule — also reachable via the netsim
// -replay flag.
package mc

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/netiface"
	"repro/internal/network"
)

// Bug selects an intentionally injected detector defect, used to prove the
// checker can catch real bugs (and to generate counterexample corpora).
type Bug string

const (
	// BugNone checks the honest implementation.
	BugNone Bug = ""
	// BugSuppressDetect swallows every endpoint detection before it
	// reaches the handling scheme: true deadlocks are never acted on, so
	// the checker must find a missed-deadlock path.
	BugSuppressDetect Bug = "suppress-detect"
	// BugForgeDetect fires a forged endpoint detection every ForgePeriod
	// cycles regardless of queue state: the checker must find a
	// false-detection path (strict mode).
	BugForgeDetect Bug = "forge-detect"
	// BugSuppressProbe swallows every probe-engine deadlock declaration
	// (probe detector mode): probes chase and return but recovery never
	// hears, so the checker must find a missed-deadlock path.
	BugSuppressProbe Bug = "suppress-probe"
	// BugForgeProbe fires a forged probe declaration every ForgePeriod
	// cycles regardless of probe state: the checker must find a
	// false-detection path (strict mode, probe detector).
	BugForgeProbe Bug = "forge-probe"
)

// TxnSpec scripts one transaction: which template of the configured pattern
// to run, between which endpoints, and the earliest cycle the explorer may
// release it.
type TxnSpec struct {
	Template  int   `json:"template"`
	Requester int   `json:"requester"`
	Home      int   `json:"home"`
	Thirds    []int `json:"thirds,omitempty"`
	Earliest  int64 `json:"earliest"`
}

// Options configures an exploration. The JSON keys are those of a
// counterexample file, which carries the options minus the bounds and
// callbacks a replay has no use for.
type Options struct {
	// Net is the network under test. Warmup/Measure/MaxDrain and Rate are
	// overridden (the explorer owns the clock and the workload).
	Net network.Config `json:"cfg"`
	// Txns is the scripted workload.
	Txns []TxnSpec `json:"txns"`
	// MaxCycles bounds every path's cycle count (default
	// DefaultMaxCycles); a path that exhausts it without quiescing is a
	// violation.
	MaxCycles int64 `json:"max_cycles"`
	// MaxStates bounds the visited set (default DefaultMaxStates). Hitting
	// it stops the exploration with Result.Complete=false.
	MaxStates int `json:"-"`
	// InjectWindow is how many cycles past Earliest a release may be
	// deferred (default 4).
	InjectWindow int64 `json:"inject_window"`
	// Rotations is the number of round-robin rotations branched at
	// contended cycles (default 2; 1 disables arbitration branching).
	Rotations int `json:"rotations"`
	// DelayRescue branches on deferring the recovery engine by one cycle
	// whenever an endpoint newly requests rescue service.
	DelayRescue bool `json:"delay_rescue,omitempty"`
	// StrictDetect arms the false-detection check. It requires a
	// configuration whose detector thresholds are tuned so honest runs
	// never fire on mere congestion (the tiny-config defaults are).
	StrictDetect bool `json:"strict_detect,omitempty"`
	// Bug injects a detector defect. A probe bug needs the probe detector.
	Bug Bug `json:"bug,omitempty"`
	// ForgePeriod is the forge bugs' firing period in cycles (default
	// DefaultForgePeriod).
	ForgePeriod int64 `json:"forge_period,omitempty"`
	// Progress, when set, receives a callback every progressEvery
	// transitions.
	Progress func(ProgressInfo) `json:"-"`
}

// progressEvery is the number of transitions between Progress callbacks.
const progressEvery = 5000

// ProgressInfo is a progress callback payload.
type ProgressInfo struct {
	States      int64
	Transitions int64
	Frontier    int
	Depth       int
}

// Violation is one property failure.
type Violation struct {
	Kind   string `json:"kind"`
	Cycle  int64  `json:"cycle"`
	Detail string `json:"detail"`
}

// Result summarizes an exploration.
type Result struct {
	// States counts distinct canonical branch states; Transitions counts
	// explored state transitions (each covering one or more cycles).
	States      int64
	Transitions int64
	// Accepts counts paths that quiesced with every transaction delivered.
	Accepts int64
	// Detections counts transitions with a recovery dispatch; Dispatches
	// the dispatches, NoKnotDispatches those that found no knot.
	Detections       int64
	Dispatches       int64
	NoKnotDispatches int64
	// MaxDepth is the deepest branch stack reached.
	MaxDepth int
	// Complete reports that the state space was exhausted within bounds.
	Complete bool
	// Counterexample is the first violating path found, nil if none.
	Counterexample *Counterexample
}

// Explorer holds one model-checking run's machinery.
type Explorer struct {
	opt Options
	n   *network.Network
	src *script

	// The current path's recovery judge, and the current transition's
	// dispatch and its first unblocked one.
	judge      check.Judge
	dispatched bool
	unsound    *Violation
	visited    map[uint64]struct{}
	result     Result
}

// The budget and forge-period defaults Options fall back to.
const (
	DefaultMaxCycles   = 2000
	DefaultMaxStates   = 500000
	DefaultForgePeriod = 10
)

func (o *Options) fillDefaults() {
	if o.MaxCycles <= 0 {
		o.MaxCycles = DefaultMaxCycles
	}
	if o.MaxStates <= 0 {
		o.MaxStates = DefaultMaxStates
	}
	if o.InjectWindow < 0 {
		o.InjectWindow = 0
	} else if o.InjectWindow == 0 {
		o.InjectWindow = 4
	}
	if o.Rotations <= 0 {
		o.Rotations = 2
	}
	if o.ForgePeriod <= 0 {
		o.ForgePeriod = DefaultForgePeriod
	}
}

// ownRun returns cfg with the run phases and rate the explorer imposes: it
// owns the run, so generation must never stop (no drain phase within the
// explored horizon) and the built-in source is replaced by the script.
func ownRun(cfg network.Config) network.Config {
	cfg.Warmup = 0
	cfg.Measure = 1 << 40
	cfg.MaxDrain = 1 << 40
	cfg.Rate = 0
	return cfg
}

// New builds an explorer: a network driven by the scripted source, with its
// recovery dispatches observed and the selected bug injected. It is
// the one admission check for Options: the network must pass
// network.Config.Validate, the bug must be one New knows and a probe bug
// needs the probe detector, and every scripted transaction must fit the
// network's pattern and endpoints.
func New(opt Options) (*Explorer, error) {
	opt.fillDefaults()
	cfg := ownRun(opt.Net)
	if len(opt.Txns) == 0 {
		return nil, fmt.Errorf("mc: no scripted transactions")
	}
	switch opt.Bug {
	case BugNone, BugSuppressDetect, BugForgeDetect:
	case BugSuppressProbe, BugForgeProbe:
		if cfg.Detector != network.DetectorProbe {
			return nil, fmt.Errorf("mc: Bug %q targets the probe engine, which needs Detector %q", opt.Bug, network.DetectorProbe)
		}
	default:
		return nil, fmt.Errorf("mc: unknown Bug %q (want %s, %s, %s or %s)",
			opt.Bug, BugSuppressDetect, BugForgeDetect, BugSuppressProbe, BugForgeProbe)
	}
	e := &Explorer{opt: opt}
	src := &script{specs: opt.Txns}
	n, err := network.NewWithSource(cfg, src.factory())
	if err != nil {
		return nil, err
	}
	e.n = n
	e.src = src
	endpoints := n.Torus.Endpoints()
	for i, t := range opt.Txns {
		if t.Template < 0 || t.Template >= len(cfg.Pattern.Templates) {
			return nil, fmt.Errorf("mc: txn %d: template %d out of range", i, t.Template)
		}
		if t.Requester < 0 || t.Requester >= endpoints || t.Home < 0 || t.Home >= endpoints {
			return nil, fmt.Errorf("mc: txn %d: endpoints out of range", i)
		}
		if t.Requester == t.Home {
			return nil, fmt.Errorf("mc: txn %d: requester == home", i)
		}
		_, width := cfg.Pattern.Templates[t.Template].FanoutIndex()
		if len(t.Thirds) != width {
			return nil, fmt.Errorf("mc: txn %d: %d thirds, template wants %d", i, len(t.Thirds), width)
		}
		for _, th := range t.Thirds {
			if th < 0 || th >= endpoints || th == t.Home {
				return nil, fmt.Errorf("mc: txn %d: bad third party %d", i, th)
			}
		}
	}
	// The suppress bugs swallow every firing or declaration.
	switch opt.Bug {
	case BugSuppressDetect:
		for _, ni := range n.NIs {
			ni.Cfg.Hooks.Detect = func(*netiface.NI, int, int64) {}
		}
	case BugSuppressProbe:
		n.Probe.OnDeclare = func(int, int64) {}
	}
	n.OnDispatch = e.onDispatch
	return e, nil
}

// Network exposes the underlying network (for tests and tools).
func (e *Explorer) Network() *network.Network { return e.n }

// onDispatch observes one recovery dispatch and judges it with the path's
// judge.
func (e *Explorer) onDispatch(ni *netiface.NI, q int, now int64) {
	e.dispatched = true
	e.result.Dispatches++
	noKnot, v := e.judge.Dispatch(e.n, ni, q)
	if noKnot {
		e.result.NoKnotDispatches++
	}
	if v != nil && e.unsound == nil {
		e.unsound = violation(now, *v)
	}
}
