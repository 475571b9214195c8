package fault

import (
	"fmt"
	"strings"

	"repro/internal/ckpt"
	"repro/internal/message"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/topology"
)

// DefaultRegenTimeout is the token watchdog threshold Attach arms when a
// plan injects token loss and the network has no watchdog configured: long
// against the token's ring tour (a few hundred cycles on the paper's
// networks) so transient circulation gaps never trigger a spurious
// re-election, short against any drain budget.
const DefaultRegenTimeout = 500

// eventState is the per-plan-event runtime bookkeeping.
type eventState struct {
	done    bool
	applied int64 // times the fault actually took effect
	first   int64 // cycle of the first application (-1 before any)
	last    int64 // cycle of the most recent application
	dropped int64 // messages destroyed by this event (link-flaky drop)
}

// Injector schedules a fault plan's events on one built network: it decides
// when each fault happens and leaves what it does to the network's fault
// operations (Network.KillLink, FreezeRouter, StallNI, StallLink, DropWorm,
// and VC.ReduceCap). Attach it after network construction and before Run;
// it is not safe to share across networks or goroutines (the simulation is
// single-threaded).
type Injector struct {
	n     *network.Network
	plan  *Plan
	rng   *sim.RNG
	state []eventState

	injectedMsgs  int64
	deliveredMsgs int64
}

// Attach validates the plan against the network and installs the injector as
// the network's fault schedule, with the token watchdog (armed with
// DefaultRegenTimeout when the plan loses the token and no timeout is
// configured) and delivery accounting via chained NI hooks. An empty plan
// attaches nothing and leaves the network bit-identical to an untouched one.
func Attach(n *network.Network, plan *Plan) (*Injector, error) {
	if plan == nil {
		plan = &Plan{}
	}
	plan = plan.Normalized()
	tor := n.Torus
	if err := plan.Validate(tor.Routers(), tor.Directions(), tor.Endpoints()); err != nil {
		return nil, err
	}
	inj := &Injector{
		n:     n,
		plan:  plan,
		rng:   sim.NewRNG(plan.Seed),
		state: make([]eventState, len(plan.Events)),
	}
	for i := range inj.state {
		inj.state[i].first = -1
	}
	// Attach-time checks that need the built network: the named link must
	// exist (meshes lack wrap channels) and credit-loss VC indices must be
	// in range.
	for i, e := range plan.Events {
		switch e.Kind {
		case LinkDown, LinkFlaky, CreditLoss:
			ch := inj.link(e)
			if ch == nil {
				return nil, fmt.Errorf("fault: event %d: no link leaves router %d in direction %d", i, e.Router, e.Dir)
			}
			if e.Kind == CreditLoss && e.VC >= len(ch.VCs) {
				return nil, fmt.Errorf("fault: event %d: vc %d outside [0,%d)", i, e.VC, len(ch.VCs))
			}
		case TokenLoss, TokenResurface:
			if n.Rescue == nil {
				return nil, fmt.Errorf("fault: event %d: %s requires the PR scheme's token", i, e.Kind)
			}
		}
	}
	if plan.Empty() {
		return inj, nil
	}
	if plan.has(TokenLoss) && n.Rescue != nil && n.Rescue.RegenTimeout() == 0 {
		n.Rescue.SetRegenTimeout(DefaultRegenTimeout)
	}
	for _, ni := range n.NIs {
		h := &ni.Cfg.Hooks
		prevInj, prevDel := h.Injected, h.Delivered
		h.Injected = func(m *message.Message, now int64) {
			inj.injectedMsgs++
			if prevInj != nil {
				prevInj(m, now)
			}
		}
		h.Delivered = func(m *message.Message, now int64) {
			inj.deliveredMsgs++
			if prevDel != nil {
				prevDel(m, now)
			}
		}
	}
	n.AttachFaults(inj)
	return inj, nil
}

// link returns the link channel event e names, nil if there is none.
func (inj *Injector) link(e Event) *router.Channel {
	return inj.n.Routers[e.Router].Outputs[e.Dir]
}

// Step runs in the network's fault stage at the end of every cycle: it
// applies each plan event due this cycle, in plan order (fixed order keeps
// the RNG draw sequence, and therefore the whole run, deterministic).
func (inj *Injector) Step(now int64) {
	for i := range inj.plan.Events {
		inj.apply(i, now)
	}
}

// Canonical names the injector's plan for the network's snapshot shape.
func (inj *Injector) Canonical() string { return inj.plan.Canonical() }

// Checkpoint names the injector's cursor (see package ckpt): which events are
// spent and the RNG, which decide what it does next, and, unhashed, its
// attribution and delivery ledger. What the faults did is the network's to
// name.
func (inj *Injector) Checkpoint(c *ckpt.C) {
	inj.rng.Checkpoint(c)
	for i := range inj.state {
		st := &inj.state[i]
		c.Bool(&st.done)
		if c.Unhashed() {
			ckpt.Int(c, &st.applied)
			c.Time(&st.first)
			c.Time(&st.last)
			ckpt.Int(c, &st.dropped)
		}
	}
	if c.Unhashed() {
		ckpt.Int(c, &inj.injectedMsgs)
		ckpt.Int(c, &inj.deliveredMsgs)
	}
}

func (inj *Injector) apply(i int, now int64) {
	e := &inj.plan.Events[i]
	st := &inj.state[i]
	if st.done || now < e.At {
		return
	}
	switch e.Kind {
	case LinkDown:
		inj.n.KillLink(topology.NodeID(e.Router), topology.Direction(e.Dir))
		st.done = true
		inj.record(i, now, e.Router, fmt.Sprintf("link-down %d dir %d", e.Router, e.Dir))
	case LinkFlaky:
		if e.Until != 0 && now >= e.Until {
			st.done = true
			return
		}
		if !inj.rng.Bernoulli(e.Rate) {
			return
		}
		ch := inj.link(*e)
		if e.Drop {
			if m := inj.n.DropWorm(ch, now); m != nil {
				st.dropped++
				inj.record(i, now, e.Router, fmt.Sprintf("link-flaky drop %d dir %d txn %d", e.Router, e.Dir, m.Txn))
			}
			return
		}
		inj.n.StallLink(ch)
		inj.record(i, now, e.Router, fmt.Sprintf("link-flaky stall %d dir %d", e.Router, e.Dir))
	case RouterFreeze:
		// The fault stage runs after the routers stepped, so the freeze
		// covers exactly the next Cycles cycles.
		inj.n.FreezeRouter(e.Router, now+1+e.Cycles)
		st.done = true
		inj.record(i, now, e.Router, fmt.Sprintf("router-freeze %d for %d", e.Router, e.Cycles))
	case NIStall:
		inj.n.StallNI(e.Endpoint, now+1+e.Cycles)
		st.done = true
		inj.record(i, now, e.Endpoint, fmt.Sprintf("ni-stall %d for %d", e.Endpoint, e.Cycles))
	case CreditLoss:
		ch := inj.link(*e)
		// Retries until a slot is free to remove (ReduceCap refuses while
		// every slot is occupied or only one remains).
		if ch.VCs[e.VC].ReduceCap() {
			st.done = true
			inj.record(i, now, e.Router, fmt.Sprintf("credit-loss %d dir %d vc %d", e.Router, e.Dir, e.VC))
		}
	case TokenLoss:
		r := inj.n.Rescue
		if r.Lost() {
			st.done = true
			return
		}
		// A held token cannot be lost (the rescue's control packets are
		// end-to-end protected); retry once it re-circulates.
		if r.Active() {
			return
		}
		r.Lose()
		st.done = true
		inj.record(i, now, -1, "token-loss")
	case TokenResurface:
		ok := inj.n.Rescue.Resurface(topology.NodeID(e.Router))
		st.done = true
		if ok {
			inj.record(i, now, e.Router, fmt.Sprintf("token-resurface %d reinstated", e.Router))
		} else {
			inj.record(i, now, e.Router, fmt.Sprintf("token-resurface %d stale, discarded", e.Router))
		}
	}
}

// record updates the event's attribution window and emits a KindFault trace
// event when a bus is attached.
func (inj *Injector) record(i int, now int64, node int, note string) {
	st := &inj.state[i]
	st.applied++
	if st.first < 0 {
		st.first = now
	}
	st.last = now
	if bus := inj.n.Bus(); bus != nil {
		bus.Emit(obs.Event{Cycle: now, Kind: obs.KindFault, Node: node,
			Arg: int64(i), Note: note})
	}
}

// EventReport is the per-plan-event attribution in a Report.
type EventReport struct {
	Index   int       `json:"index"`
	Kind    EventKind `json:"kind"`
	Applied int64     `json:"applied"`
	// First and Last bound the cycles the event took effect (-1 when it
	// never fired).
	First   int64 `json:"first"`
	Last    int64 `json:"last"`
	Dropped int64 `json:"dropped,omitempty"`
}

// Report summarizes a faulted run: how much traffic survived, what the
// faults cost, and how the token weathered them.
type Report struct {
	InjectedMsgs  int64   `json:"injected_msgs"`
	DeliveredMsgs int64   `json:"delivered_msgs"`
	DeliveredFrac float64 `json:"delivered_frac"`
	LostFlits     int64   `json:"lost_flits"`
	LostMsgs      int64   `json:"lost_msgs"`
	DeadLinks     int     `json:"dead_links"`

	// Token recovery statistics (all zero without a PR token).
	TokenLosses        int64  `json:"token_losses"`
	TokenRegenerations int64  `json:"token_regenerations"`
	TokenResurfaces    int64  `json:"token_resurfaces"`
	TokenStaleDiscards int64  `json:"token_stale_discards"`
	TokenOutageCycles  int64  `json:"token_outage_cycles"`
	TokenEpoch         uint64 `json:"token_epoch"`

	Events []EventReport `json:"events"`
}

// Report captures the injector's view of the run so far (call it after Run).
func (inj *Injector) Report() Report {
	r := Report{
		InjectedMsgs:  inj.injectedMsgs,
		DeliveredMsgs: inj.deliveredMsgs,
		DeliveredFrac: 1,
		LostFlits:     inj.n.Faults.LostFlits,
		LostMsgs:      inj.n.Faults.LostMsgs,
		DeadLinks:     inj.n.Health.DeadLinks(),
	}
	if inj.injectedMsgs > 0 {
		r.DeliveredFrac = float64(inj.deliveredMsgs) / float64(inj.injectedMsgs)
	}
	if tok := inj.n.Rescue; tok != nil {
		r.TokenLosses = tok.Losses
		r.TokenRegenerations = tok.Regenerations
		r.TokenResurfaces = tok.Resurfaces
		r.TokenStaleDiscards = tok.StaleDiscards
		r.TokenOutageCycles = tok.OutageCycles
		r.TokenEpoch = tok.Epoch()
	}
	r.Events = make([]EventReport, len(inj.state))
	for i, st := range inj.state {
		r.Events[i] = EventReport{
			Index: i, Kind: inj.plan.Events[i].Kind,
			Applied: st.applied, First: st.first, Last: st.last,
			Dropped: st.dropped,
		}
	}
	return r
}

// String renders the report for terminal output.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fault: delivered %d/%d msgs (%.4f)", r.DeliveredMsgs, r.InjectedMsgs, r.DeliveredFrac)
	if r.LostMsgs > 0 {
		fmt.Fprintf(&b, ", lost %d msgs (%d flits)", r.LostMsgs, r.LostFlits)
	}
	if r.DeadLinks > 0 {
		fmt.Fprintf(&b, ", %d dead links", r.DeadLinks)
	}
	if r.TokenLosses > 0 {
		fmt.Fprintf(&b, "; token: %d lost, %d regenerated, %d resurfaced (%d stale), %d outage cycles, epoch %d",
			r.TokenLosses, r.TokenRegenerations, r.TokenResurfaces, r.TokenStaleDiscards,
			r.TokenOutageCycles, r.TokenEpoch)
	}
	for _, e := range r.Events {
		fmt.Fprintf(&b, "\n  event %d %s: applied %d", e.Index, e.Kind, e.Applied)
		if e.Applied > 0 {
			fmt.Fprintf(&b, " [%d,%d]", e.First, e.Last)
		}
		if e.Dropped > 0 {
			fmt.Fprintf(&b, ", dropped %d msgs", e.Dropped)
		}
	}
	return b.String()
}
