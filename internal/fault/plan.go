// Package fault implements deterministic, seed-driven fault injection for a
// built network: an Injector attaches to any *network.Network as its fault
// schedule and executes a declarative Plan — timed and probabilistic events
// covering link death, flaky links (delaying or dropping flits), router
// freezes, NI stalls, flow-control credit loss, and loss (or stale
// resurfacing) of the Disha recovery token — while the resilience mechanisms
// under test (the token regeneration watchdog, health-masked routing,
// drain-phase partial-delivery reporting) keep the simulation degrading
// gracefully instead of wedging. The Injector only decides when a fault
// happens; what it does is the network's (Network.KillLink, FreezeRouter,
// StallNI, StallLink, DropWorm, and VC.ReduceCap), so a faulted run steps on
// the active-set engine and snapshots like any other.
//
// Everything is reproducible: the injector draws from its own seeded RNG, so
// a fixed (plan, seed) pair yields bit-identical runs, and an empty plan is
// observationally invisible — delivery digests match a run with no injector
// attached at all.
package fault

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// EventKind names one fault mechanism.
type EventKind string

const (
	// LinkDown permanently removes the link leaving Router in direction
	// Dir from every routing candidate set at cycle At. Drain semantics: a
	// worm already allocated across the link finishes crossing, but no new
	// route ever selects it.
	LinkDown EventKind = "link-down"
	// LinkFlaky makes the link leaving Router in direction Dir unreliable
	// over [At, Until): each cycle, with probability Rate, the link either
	// stalls for a cycle (Drop=false; flits are delayed, never lost) or
	// destroys a worm currently using it (Drop=true; the victim's flits
	// are charged to the network's fault-loss ledger and its transaction
	// never completes, surfacing as partial delivery).
	LinkFlaky EventKind = "link-flaky"
	// RouterFreeze stalls Router's allocation and arbitration stages for
	// Cycles cycles starting after At (a soft-errored pipeline rebooting).
	RouterFreeze EventKind = "router-freeze"
	// NIStall suspends endpoint Endpoint's network interface — ejection,
	// memory controller, injection, detection — for Cycles cycles after At.
	NIStall EventKind = "ni-stall"
	// CreditLoss permanently removes one buffer credit from virtual
	// channel VC of the link leaving Router in direction Dir, at the first
	// cycle >= At where a slot is free to remove.
	CreditLoss EventKind = "credit-loss"
	// TokenLoss destroys the circulating Disha token at the first cycle >=
	// At where it is not held by a rescue (the paper rules out losing a
	// held token: rescues ride end-to-end-protected control packets).
	TokenLoss EventKind = "token-loss"
	// TokenResurface makes a delayed copy of a lost token reappear at
	// Router at cycle At; if a watchdog regeneration already superseded
	// it, the stale copy is discarded.
	TokenResurface EventKind = "token-resurface"
)

// Event is one declarative fault. Fields beyond Kind and At are
// kind-specific; see the EventKind docs for which apply.
type Event struct {
	Kind EventKind `json:"kind"`
	// At is the cycle the event fires (or the window opens, for
	// link-flaky).
	At int64 `json:"at"`
	// Until closes a link-flaky window (exclusive); 0 means never.
	Until int64 `json:"until,omitempty"`
	// Router and Dir locate a link or router; Endpoint locates an NI.
	Router   int `json:"router,omitempty"`
	Dir      int `json:"dir,omitempty"`
	Endpoint int `json:"endpoint,omitempty"`
	// VC selects the virtual channel for credit-loss.
	VC int `json:"vc,omitempty"`
	// Cycles is the freeze/stall duration.
	Cycles int64 `json:"cycles,omitempty"`
	// Rate is the per-cycle fault probability for link-flaky.
	Rate float64 `json:"rate,omitempty"`
	// Drop selects flit destruction over delay for link-flaky.
	Drop bool `json:"drop,omitempty"`
}

// Plan is a declarative fault schedule plus the seed for its probabilistic
// draws. The zero value (no events) injects nothing.
type Plan struct {
	// Seed drives the injector's private RNG; 0 normalizes to 1 so that an
	// omitted seed still names a concrete, reproducible run.
	Seed   uint64  `json:"seed,omitempty"`
	Events []Event `json:"events"`
}

// ParsePlan decodes a JSON fault plan, rejecting unknown fields so a typo in
// a plan file fails loudly instead of silently injecting nothing.
func ParsePlan(data []byte) (*Plan, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var p Plan
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("fault: bad plan: %w", err)
	}
	return &p, nil
}

// Normalized returns a copy with defaults applied (seed 0 → 1).
func (p *Plan) Normalized() *Plan {
	return &Plan{Seed: p.seed(), Events: append([]Event(nil), p.Events...)}
}

// seed is the plan's seed normalized.
func (p *Plan) seed() uint64 {
	if p.Seed == 0 {
		return 1
	}
	return p.Seed
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool { return p == nil || len(p.Events) == 0 }

// has reports whether the plan contains an event of kind k.
func (p *Plan) has(k EventKind) bool {
	for _, e := range p.Events {
		if e.Kind == k {
			return true
		}
	}
	return false
}

// Validate checks every event against the topology dimensions (router count,
// directions per router, endpoint count) without building a network, so the
// service layer can reject a bad plan before scheduling a job. VC indices
// are checked at attach time, when the channel configuration is known.
func (p *Plan) Validate(routers, dirs, endpoints int) error {
	for i, e := range p.Events {
		if e.At < 0 {
			return fmt.Errorf("fault: event %d: negative At %d", i, e.At)
		}
		switch e.Kind {
		case LinkDown, CreditLoss:
			if err := checkLink(i, e, routers, dirs); err != nil {
				return err
			}
			if e.Kind == CreditLoss && e.VC < 0 {
				return fmt.Errorf("fault: event %d: negative VC %d", i, e.VC)
			}
		case LinkFlaky:
			if err := checkLink(i, e, routers, dirs); err != nil {
				return err
			}
			if e.Rate <= 0 || e.Rate > 1 {
				return fmt.Errorf("fault: event %d: rate %g outside (0,1]", i, e.Rate)
			}
			if e.Until != 0 && e.Until <= e.At {
				return fmt.Errorf("fault: event %d: window [%d,%d) is empty", i, e.At, e.Until)
			}
		case RouterFreeze:
			if e.Router < 0 || e.Router >= routers {
				return fmt.Errorf("fault: event %d: router %d outside [0,%d)", i, e.Router, routers)
			}
			if e.Cycles <= 0 {
				return fmt.Errorf("fault: event %d: freeze needs Cycles > 0", i)
			}
		case NIStall:
			if e.Endpoint < 0 || e.Endpoint >= endpoints {
				return fmt.Errorf("fault: event %d: endpoint %d outside [0,%d)", i, e.Endpoint, endpoints)
			}
			if e.Cycles <= 0 {
				return fmt.Errorf("fault: event %d: stall needs Cycles > 0", i)
			}
		case TokenLoss:
			// Only At applies.
		case TokenResurface:
			if e.Router < 0 || e.Router >= routers {
				return fmt.Errorf("fault: event %d: router %d outside [0,%d)", i, e.Router, routers)
			}
		default:
			return fmt.Errorf("fault: event %d: unknown kind %q", i, e.Kind)
		}
	}
	return nil
}

func checkLink(i int, e Event, routers, dirs int) error {
	if e.Router < 0 || e.Router >= routers {
		return fmt.Errorf("fault: event %d: router %d outside [0,%d)", i, e.Router, routers)
	}
	if e.Dir < 0 || e.Dir >= dirs {
		return fmt.Errorf("fault: event %d: dir %d outside [0,%d)", i, e.Dir, dirs)
	}
	return nil
}

// Canonical renders the plan as a fixed-order, self-delimiting string for
// spec hashing: every field of every event appears, defaults included, so
// two plans hash alike exactly when they inject identically.
func (p *Plan) Canonical() string { return string(p.AppendCanonical(nil)) }

// AppendCanonical appends Canonical's bytes to dst: "none" for an empty plan,
// else the normalized seed and one ";kind key=value ..." group per event, the
// rate as %g formats it.
func (p *Plan) AppendCanonical(dst []byte) []byte {
	if p.Empty() {
		return append(dst, "none"...)
	}
	dst = strconv.AppendUint(append(dst, "seed="...), p.seed(), 10)
	for _, e := range p.Events {
		dst = append(append(dst, ';'), e.Kind...)
		dst = strconv.AppendInt(append(dst, " at="...), e.At, 10)
		dst = strconv.AppendInt(append(dst, " until="...), e.Until, 10)
		dst = strconv.AppendInt(append(dst, " router="...), int64(e.Router), 10)
		dst = strconv.AppendInt(append(dst, " dir="...), int64(e.Dir), 10)
		dst = strconv.AppendInt(append(dst, " endpoint="...), int64(e.Endpoint), 10)
		dst = strconv.AppendInt(append(dst, " vc="...), int64(e.VC), 10)
		dst = strconv.AppendInt(append(dst, " cycles="...), e.Cycles, 10)
		dst = strconv.AppendFloat(append(dst, " rate="...), e.Rate, 'g', -1, 64)
		dst = strconv.AppendBool(append(dst, " drop="...), e.Drop)
	}
	return dst
}
