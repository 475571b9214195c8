// Package check is the simulator's runtime conformance layer: a pluggable
// invariant checker that attaches to a built network and re-derives, every N
// cycles, the conservation laws a cycle-accurate wormhole simulation must
// obey — without perturbing the simulation itself. Every walk is strictly
// read-only, so a checked run and an unchecked run of the same configuration
// produce byte-identical statistics (a property the conformance tests pin).
//
// The invariants:
//
//   - staged-at-boundary / vc-overflow / ownerless-flits /
//     route-owner-mismatch: structural wormhole discipline on every virtual
//     channel.
//   - flit-conservation-packet: the flits a non-rescued packet has in
//     channel buffers form exactly the contiguous index range
//     [ArrivedFlits, SentFlits).
//   - flit-conservation-global: injected flits = delivered flits (of
//     injected messages) + in-flight flits, where in-flight spans channel
//     buffers, partially injected output-queue heads, and worms evacuated
//     into the recovery lane.
//   - input-credit / output-credit: per-queue reservation accounting at
//     every network interface stays within [0, QueueCap] against occupancy.
//   - pooled-*: no live structure references an object sitting on a free
//     list (use-after-release of pooled messages, packets, transactions).
//   - orphan-*: every live message's transaction is still registered.
//   - duplicate-delivery / partial-order: each (hop, branch, kind, retry) of
//     a transaction is delivered at most once, and a protocol step is never
//     delivered before its predecessor step was (no reply before its
//     request).
//   - rescue-service-uniqueness: at most one memory controller services
//     the rescue at a time, and none while no rescue holds the token.
//   - occ- / routed- / ready- / parked-mask-drift: the routers' bitmask words
//     agree with the canonical VC state they cache; a parked header really
//     has no free candidate output VC.
//   - inactive-router-occupied / inactive-router-frozen / inactive-ni-busy /
//     inactive-ni-stalled: a router or NI outside the active sweep set has
//     nothing to do, and no freeze or stall, in the next cycle.
//   - knot-soundness / knot-count: every knot the CWG detector declares is
//     re-verified against a from-scratch wait-graph rebuild (knot.go).
//   - avoidance-violated / unblocked-dispatch / missed-deadlock: the
//     recovery judge (Judge, dispatch.go, the model checker's too): an
//     avoidance scheme never knots, every recovery dispatch starts at a
//     blocked input queue, and no knot outlives MissedBound without one.
//
// On violation the checker captures a full state snapshot, emits a
// structured obs event (KindInvariant) when a trace bus is attached, and —
// under Options.FailFast — panics, failing the run at the first corrupted
// cycle instead of letting the corruption diffuse into the statistics.
package check

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/message"
	"repro/internal/netiface"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/router"
)

// Violation is one detected invariant breach.
type Violation struct {
	// Cycle is the cycle boundary (or hook firing cycle) of detection.
	Cycle int64
	// Rule names the violated invariant (see the package comment).
	Rule string
	// Detail pinpoints the offending resource or quantity.
	Detail string
	// Snapshot is a bounded dump of the whole system state at detection,
	// matching what the obs event carries.
	Snapshot string
}

// Format renders the violation for logs and panics.
func (v Violation) Format() string {
	return fmt.Sprintf("cycle %d: %s: %s\n%s", v.Cycle, v.Rule, v.Detail, v.Snapshot)
}

// Options configure an attached checker.
type Options struct {
	// Interval is the number of cycles between full invariant sweeps
	// (default 64). Zero or negative uses the default; delivery-order
	// checks run on every delivery regardless.
	Interval int64
	// OnViolation, when set, is called for each violation as it is found
	// (the cmds print and exit; tests collect).
	OnViolation func(Violation)
	// FailFast panics on the first violation with the formatted report.
	FailFast bool
}

// maxViolations bounds recorded violations; once reached the checker mutes
// itself.
const maxViolations = 16

type delivKey struct {
	hop, branch, retries int32
	backoff, nack        bool
}

type hopKey struct{ hop, branch int32 }

// Checker is one attached runtime invariant checker. All state is private to
// the network it watches; concurrently running networks each attach their
// own.
type Checker struct {
	n    *network.Network
	opts Options

	violations []Violation
	checks     int64
	muted      bool

	// conserve arms the global flit-conservation law; it requires the
	// injected/delivered tallies to start from an empty network, so
	// attaching mid-run disables just this law.
	conserve          bool
	injectedFlits     int64
	deliveredInjFlits int64

	// delivered records every delivery key per transaction (exactly-once);
	// hopSeen records which normal (hop, branch) steps have been delivered
	// (partial order). Both are cleaned up on transaction completion, so
	// memory tracks the in-flight transaction count. skipTxns exempts
	// transactions already in flight at attach time.
	delivered map[message.TxnID]map[delivKey]struct{}
	hopSeen   map[message.TxnID]map[hopKey]struct{}
	skipTxns  map[message.TxnID]bool

	// judge ages the live knot and judges it and every dispatch (dispatch.go).
	judge Judge

	// NoKnotDispatches counts the trigger's false positives (JudgeDispatch):
	// the detector experiment's falsepos, counted, not reported.
	NoKnotDispatches int64
}

// Attach installs a checker on a built network: it wraps the NI hooks for
// delivery-order accounting and chains Network.OnDispatch and
// Network.OnCycle for the dispatch rules and the periodic sweeps. Attach
// before stepping; attaching mid-run keeps every structural invariant but
// disarms the global flit-conservation law (its tallies need a clean
// start).
func Attach(n *network.Network, opts Options) *Checker {
	if opts.Interval <= 0 {
		opts.Interval = 64
	}
	c := &Checker{
		n:         n,
		opts:      opts,
		conserve:  n.Quiescent(),
		judge:     Judge{Since: -1},
		delivered: make(map[message.TxnID]map[delivKey]struct{}),
		hopSeen:   make(map[message.TxnID]map[hopKey]struct{}),
		skipTxns:  make(map[message.TxnID]bool),
	}
	n.Table.ForEach(func(t *protocol.Transaction) { c.skipTxns[t.ID] = true })
	for _, ni := range n.NIs {
		h := &ni.Cfg.Hooks
		prevInj, prevDel, prevDone := h.Injected, h.Delivered, h.TxnComplete
		h.Injected = func(m *message.Message, now int64) {
			c.onInjected(m)
			if prevInj != nil {
				prevInj(m, now)
			}
		}
		h.Delivered = func(m *message.Message, now int64) {
			c.onDelivered(m, now)
			if prevDel != nil {
				prevDel(m, now)
			}
		}
		h.TxnComplete = func(t *protocol.Transaction, now int64) {
			c.onTxnComplete(t)
			if prevDone != nil {
				prevDone(t, now)
			}
		}
	}
	prevDispatch := n.OnDispatch
	n.OnDispatch = func(ni *netiface.NI, q int, now int64) {
		c.onDispatch(ni, q, now)
		if prevDispatch != nil {
			prevDispatch(ni, q, now)
		}
	}
	prevCycle := n.OnCycle
	n.OnCycle = func(now int64) {
		c.onCycle(now)
		if prevCycle != nil {
			prevCycle(now)
		}
	}
	return c
}

// Violations returns every violation recorded so far.
func (c *Checker) Violations() []Violation { return c.violations }

// Checks returns the number of full invariant sweeps performed.
func (c *Checker) Checks() int64 { return c.checks }

// Err summarizes the recorded violations as an error, nil when clean.
func (c *Checker) Err() error {
	if len(c.violations) == 0 {
		return nil
	}
	return fmt.Errorf("check: %d invariant violation(s); first: %s",
		len(c.violations), c.violations[0].Format())
}

// onCycle runs at every cycle boundary (chained through Network.OnCycle).
func (c *Checker) onCycle(now int64) {
	if c.muted {
		return
	}
	if now%c.opts.Interval == 0 {
		c.CheckNow(now)
		if _, v := c.judge.Boundary(c.n, now); v != nil {
			c.report(now, v.Rule, v.Detail)
		}
	}
	// The CWG re-verification must see exactly the state the detector
	// scanned, so it runs on the detector's own schedule: Step scans right
	// before OnCycle on these cycles, with no state mutation in between.
	if c.n.Detector != nil && c.n.Cfg.CWGInterval > 0 &&
		now > 0 && now%c.n.Cfg.CWGInterval == 0 {
		c.VerifyKnots(now)
	}
}

// report records one violation, snapshots the system, emits the obs event,
// and applies the configured failure policy.
func (c *Checker) report(now int64, rule, detail string) {
	if c.muted {
		return
	}
	v := Violation{Cycle: now, Rule: rule, Detail: detail, Snapshot: c.snapshot(now)}
	c.violations = append(c.violations, v)
	if len(c.violations) >= maxViolations {
		c.muted = true
	}
	if bus := c.n.Bus(); bus != nil {
		bus.Emit(obs.Event{Cycle: now, Kind: obs.KindInvariant, Node: -1,
			Note: rule + ": " + detail + "\n" + v.Snapshot})
	}
	if c.opts.OnViolation != nil {
		c.opts.OnViolation(v)
	}
	if c.opts.FailFast {
		panic("check: invariant violation\n" + v.Format())
	}
}

// onInjected tallies flits entering the network.
func (c *Checker) onInjected(m *message.Message) {
	c.injectedFlits += int64(m.Flits)
}

// onDelivered tallies delivered flits and enforces the delivery-order laws:
// exactly-once per (hop, branch, kind, retry) key, and no protocol step
// delivered before its predecessor step (replies follow their requests).
func (c *Checker) onDelivered(m *message.Message, now int64) {
	if m.Injected >= 0 {
		// Messages delivered purely over the recovery lane (rescue
		// subordinates) never injected and are excluded from both sides of
		// the conservation equation.
		c.deliveredInjFlits += int64(m.Flits)
	}
	if c.muted || c.skipTxns[m.Txn] {
		return
	}
	if !m.Deflected {
		// Deflective and regressive recovery kill a delivered message and
		// reissue it with the Deflected flag; the reissue legitimately
		// repeats the original's delivery key, so exactly-once applies to
		// undeflected deliveries only.
		k := delivKey{hop: int32(m.Hop), branch: int32(m.Branch),
			retries: int32(m.Retries), backoff: m.Backoff, nack: m.Nack}
		set := c.delivered[m.Txn]
		if set == nil {
			set = make(map[delivKey]struct{})
			c.delivered[m.Txn] = set
		}
		if _, dup := set[k]; dup {
			c.report(now, "duplicate-delivery", fmt.Sprintf("%v delivered twice (key %+v)", m, k))
		}
		set[k] = struct{}{}
	}
	if m.Backoff || m.Nack {
		return // recovery control messages sit outside the template order
	}
	if m.Hop > 0 {
		if txn, ok := c.n.Table.Lookup(m.Txn); ok {
			// The predecessor of a step past the fanout point belongs to
			// the same branch; before (and at) the fanout point the chain
			// is still linear on branch 0.
			fi, _ := txn.Tmpl.FanoutIndex()
			pb := int32(0)
			if fi >= 0 && m.Hop-1 >= fi {
				pb = int32(m.Branch)
			}
			if _, seen := c.hopSeen[m.Txn][hopKey{int32(m.Hop - 1), pb}]; !seen {
				c.report(now, "partial-order",
					fmt.Sprintf("%v delivered before its hop-%d predecessor was consumed", m, m.Hop-1))
			}
		}
	}
	hs := c.hopSeen[m.Txn]
	if hs == nil {
		hs = make(map[hopKey]struct{})
		c.hopSeen[m.Txn] = hs
	}
	hs[hopKey{int32(m.Hop), int32(m.Branch)}] = struct{}{}
}

// onTxnComplete releases per-transaction tracking state, bounding checker
// memory by the in-flight transaction count.
func (c *Checker) onTxnComplete(t *protocol.Transaction) {
	delete(c.delivered, t.ID)
	delete(c.hopSeen, t.ID)
	delete(c.skipTxns, t.ID)
}

// CheckNow runs one full invariant sweep against the current cycle-boundary
// state. The periodic schedule calls it every Options.Interval cycles; tests
// call it directly after corrupting state.
func (c *Checker) CheckNow(now int64) {
	c.checks++
	n := c.n

	// --- channel walk: structural discipline + per-packet flit census ---
	pktFlits := make(map[*message.Packet][]int)
	for _, ch := range n.Channels {
		occ := ch.OccMask()
		for v, vc := range ch.VCs {
			if occ>>uint(v)&1 == 1 != (vc.Len() > 0) {
				c.report(now, "occ-mask-drift",
					fmt.Sprintf("%v: occ bit %d=%d but the VC holds %d flits", ch, v, occ>>uint(v)&1, vc.Len()))
			}
			if vc.StagedLen() != 0 {
				c.report(now, "staged-at-boundary",
					fmt.Sprintf("%v holds %d uncommitted flits after Commit", vc, vc.StagedLen()))
			}
			if vc.Len() > vc.Cap() {
				c.report(now, "vc-overflow", fmt.Sprintf("%v holds %d flits, capacity %d", vc, vc.Len(), vc.Cap()))
			}
			// A VC's flits are its owner's (the buffer is a window on the
			// owner's worm), so an ownerless VC holds flits of no packet.
			if vc.Len() > 0 && vc.Owner == nil {
				c.report(now, "ownerless-flits", fmt.Sprintf("%v buffers %d flits without an owner", vc, vc.Len()))
				continue
			}
			if vc.Len() > 0 && vc.Route != nil && vc.Route.Owner != nil && vc.Route.Owner != vc.Owner {
				c.report(now, "route-owner-mismatch",
					fmt.Sprintf("%v routed to %v with mismatched owners", vc, vc.Route))
			}
			vc.ForEachFlit(func(f message.Flit) {
				pkt := f.Pkt
				if pkt.Pooled() {
					c.report(now, "pooled-packet-in-channel",
						fmt.Sprintf("%v buffers a flit of released pkt %d", vc, pkt.ID))
					return
				}
				if pkt.Msg.Pooled() {
					c.report(now, "pooled-message-in-channel",
						fmt.Sprintf("%v buffers pkt %d of released %v", vc, pkt.ID, pkt.Msg))
				}
				pktFlits[pkt] = append(pktFlits[pkt], f.Idx)
			})
		}
	}
	// --- active-set state: the routing/credit bitmask words must agree with
	// the canonical VC fields (they are maintained incrementally on every
	// mutation; the occupancy word is checked per channel above), and a
	// router or NI outside the active sweep set must genuinely have nothing
	// to do ---
	for id, r := range n.Routers {
		// A router frozen next cycle must step through the freeze: its idle
		// catch-up would rotate it through cycles in which it rotates not.
		if !n.RouterActive(id) && r.FrozenUntil > now+1 {
			c.report(now, "inactive-router-frozen",
				fmt.Sprintf("router %d outside the active set but frozen until cycle %d", id, r.FrozenUntil))
		}
		if !r.ActiveStateReady() {
			continue // router never stepped; masks not built yet
		}
		for i, in := range r.Inputs {
			if in == nil {
				continue
			}
			occ, routed, ready := in.OccMask(), r.InputRoutedWord(i), r.InputReadyWord(i)
			parked := r.InputParkedWord(i)
			for v, vc := range in.VCs {
				if parked>>uint(v)&1 == 1 {
					if why := c.parkedWrongly(r, vc); why != "" {
						c.report(now, "parked-mask-drift",
							fmt.Sprintf("router %d input %d: parked bit %d set but %v %s", id, i, v, vc, why))
					}
				}
				if routed>>uint(v)&1 == 1 != (vc.Route != nil) {
					c.report(now, "routed-mask-drift",
						fmt.Sprintf("router %d input %d: routed bit %d=%d but %v route=%v", id, i, v, routed>>uint(v)&1, vc, vc.Route))
				}
				wantReady := vc.Route != nil && vc.Route.SpaceFor()
				if ready>>uint(v)&1 == 1 != wantReady {
					c.report(now, "ready-mask-drift",
						fmt.Sprintf("router %d input %d: ready bit %d=%d but route space=%v", id, i, v, ready>>uint(v)&1, wantReady))
				}
			}
			if !n.RouterActive(id) && occ != 0 {
				c.report(now, "inactive-router-occupied",
					fmt.Sprintf("router %d outside the active set but input %d has occ word %#x", id, i, occ))
			}
		}
	}
	// An NI outside the active set must be one whose steps are pure rotation
	// until a known cycle, and if that cycle is finite a timer must be set to
	// bring it back by then: a lost timer hangs the run instead of changing a
	// digest, so nothing else would notice it early.
	for _, ni := range n.NIs {
		ep := ni.Cfg.Endpoint
		if n.NIActive(ep) {
			continue
		}
		if ni.StallUntil > now+1 {
			c.report(now, "inactive-ni-stalled",
				fmt.Sprintf("ni%d outside the active set but stalled until cycle %d", ep, ni.StallUntil))
		}
		until, ok := ni.Dormant()
		if !ok {
			c.report(now, "inactive-ni-busy",
				fmt.Sprintf("ni%d outside the active set but not dormant", ep))
		} else if at := n.NIWakeAt(ep); at == netiface.Never && until != netiface.Never {
			c.report(now, "inactive-ni-busy",
				fmt.Sprintf("ni%d asleep until cycle %d with no timer set", ep, until))
		} else if at > until {
			c.report(now, "inactive-ni-busy",
				fmt.Sprintf("ni%d asleep until cycle %d but its timer fires at %d", ep, until, at))
		}
	}

	// --- per-packet conservation: buffered flits are exactly the sent,
	// not-yet-arrived contiguous range of the worm ---
	var inflight int64
	for pkt, idxs := range pktFlits {
		m := pkt.Msg
		if pkt.BeingRescued {
			// Evacuation removes every flit at capture time; a rescued
			// packet must never linger in a channel buffer.
			c.report(now, "rescued-packet-in-channel",
				fmt.Sprintf("pkt %d (%v) is being rescued but still buffers flits", pkt.ID, m))
			continue
		}
		if pkt.ArrivedFlits < 0 || pkt.ArrivedFlits > pkt.SentFlits || pkt.SentFlits > m.Flits {
			c.report(now, "flit-counters",
				fmt.Sprintf("pkt %d (%v): sent=%d arrived=%d flits=%d", pkt.ID, m, pkt.SentFlits, pkt.ArrivedFlits, m.Flits))
			continue
		}
		sort.Ints(idxs)
		ok := len(idxs) == pkt.SentFlits-pkt.ArrivedFlits
		for i := 0; ok && i < len(idxs); i++ {
			ok = idxs[i] == pkt.ArrivedFlits+i
		}
		if !ok {
			c.report(now, "flit-conservation-packet",
				fmt.Sprintf("pkt %d (%v): buffered flit indices %v, want [%d,%d)", pkt.ID, m, idxs, pkt.ArrivedFlits, pkt.SentFlits))
		}
		if _, live := n.Table.Lookup(m.Txn); !live {
			c.report(now, "orphan-message-in-channel",
				fmt.Sprintf("%v buffered with no registered transaction", m))
		}
		// The ledger counts whole messages (Flits at injection, Flits at
		// delivery), so an undelivered message contributes its full length
		// regardless of how many flits already arrived.
		inflight += int64(m.Flits)
	}

	// --- NI walk: credit accounting, pool safety, orphan messages, and the
	// in-flight share of partially injected worms with no buffered flits ---
	for _, ni := range n.NIs {
		ep := ni.Cfg.Endpoint
		for q := 0; q < ni.Cfg.Queues; q++ {
			if r := ni.InReserved(q); r < 0 || ni.InQueueLen(q)+r > ni.Cfg.QueueCap {
				c.report(now, "input-credit",
					fmt.Sprintf("ni%d.in%d: len=%d reserved=%d cap=%d", ep, q, ni.InQueueLen(q), r, ni.Cfg.QueueCap))
			}
			if r := ni.OutReserved(q); r < 0 || ni.OutQueueLen(q)+r > ni.Cfg.QueueCap {
				c.report(now, "output-credit",
					fmt.Sprintf("ni%d.out%d: len=%d reserved=%d cap=%d", ep, q, ni.OutQueueLen(q), r, ni.Cfg.QueueCap))
			}
			if _, pkt, _, ok := ni.OutHead(q); ok && pkt.SentFlits > 0 && !pkt.BeingRescued {
				if _, buffered := pktFlits[pkt]; !buffered {
					// Every sent flit already arrived but the tail has not
					// left the source yet: the worm is in flight with zero
					// buffered flits.
					inflight += int64(pkt.Msg.Flits)
				}
			}
		}
		ni.ForEachMessage(func(m *message.Message, pkt *message.Packet) {
			if m.Pooled() {
				c.report(now, "pooled-message-in-ni", fmt.Sprintf("ni%d holds released %v", ep, m))
				return
			}
			if pkt != nil && pkt.Pooled() {
				c.report(now, "pooled-packet-in-ni", fmt.Sprintf("ni%d queues released pkt %d", ep, pkt.ID))
			}
			if _, live := n.Table.Lookup(m.Txn); !live {
				c.report(now, "orphan-message-in-ni",
					fmt.Sprintf("ni%d holds %v with no registered transaction", ep, m))
			}
		})
	}

	// --- recovery-lane custody: evacuated worms count toward in-flight ---
	if n.Rescue != nil {
		n.Rescue.ForEachCustody(func(m *message.Message) {
			if m.Pooled() {
				c.report(now, "pooled-message-in-rescue", fmt.Sprintf("rescue lane holds released %v", m))
				return
			}
			if _, live := n.Table.Lookup(m.Txn); !live {
				c.report(now, "orphan-message-in-rescue",
					fmt.Sprintf("rescue lane holds %v with no registered transaction", m))
			}
			if m.Injected >= 0 {
				// Worms are only evacuated before any flit arrives, so the
				// whole length is still in flight.
				inflight += int64(m.Flits)
			}
		})
	}

	// --- global flit conservation ---
	if c.conserve && c.injectedFlits != c.deliveredInjFlits+inflight+n.Faults.LostFlits {
		c.report(now, "flit-conservation-global",
			fmt.Sprintf("injected %d flits != delivered %d + in-flight %d + fault-lost %d",
				c.injectedFlits, c.deliveredInjFlits, inflight, n.Faults.LostFlits))
	}

	// --- rescue-service exclusivity ---
	if n.Rescue != nil {
		active := n.Rescue.Active()
		busy := 0
		for _, ni := range n.NIs {
			if ni.RescueBusy() {
				busy++
			}
		}
		if busy > 1 || (busy == 1 && !active) {
			c.report(now, "rescue-service-uniqueness",
				fmt.Sprintf("%d controllers busy on rescue service, rescue active=%v", busy, active))
		}
	}

	// --- transaction table soundness ---
	n.Table.ForEach(func(t *protocol.Transaction) {
		if t.Released() {
			c.report(now, "released-txn-in-table", fmt.Sprintf("txn %d sits on the free list", t.ID))
		}
		if t.Completed > t.Width() {
			c.report(now, "txn-overcompleted",
				fmt.Sprintf("txn %d completed %d of %d branches", t.ID, t.Completed, t.Width()))
		} else if t.Done() {
			c.report(now, "completed-txn-in-table", fmt.Sprintf("txn %d done but not removed", t.ID))
		}
	})
}

// parkedWrongly says why input VC vc of router r must not carry a parked bit,
// or "" when it may: the bit claims an unrouted header sits at the front and
// every candidate output VC is owned, so nothing but a release at r — which
// clears the bit — can let the allocator succeed.
func (c *Checker) parkedWrongly(r *router.Router, vc *router.VC) string {
	f, ok := vc.Front()
	switch {
	case !ok:
		return "is empty"
	case f.Pkt == nil:
		return "has no owner"
	case vc.Route != nil:
		return "is routed"
	case !f.Head():
		return "has no header at the front"
	}
	for _, cand := range c.n.Candidates(r.ID, f.Pkt) {
		if out := r.Outputs[cand.Port].VCs[cand.VC]; out.Owner == nil {
			return fmt.Sprintf("has the free candidate %v", out)
		}
	}
	return ""
}

// snapshot renders a bounded dump of the system state: global tallies, the
// recovery machinery, every occupied virtual channel and non-empty NI queue
// (capped), enough to reproduce the blockage a violation fired in.
func (c *Checker) snapshot(now int64) string {
	n := c.n
	var b strings.Builder
	fmt.Fprintf(&b, "  state: %v cycle=%d occupied=%d table=%d injected=%d delivered=%d flits\n",
		n, now, n.OccupiedFlits(), n.Table.Len(), c.injectedFlits, c.deliveredInjFlits)
	if n.Rescue != nil {
		fmt.Fprintf(&b, "  token: %v\n", n.Rescue)
	}
	const maxLines = 24
	lines := 0
	for _, ch := range n.Channels {
		for _, vc := range ch.VCs {
			if vc.Len() == 0 {
				continue
			}
			if lines >= maxLines {
				b.WriteString("  ... more occupied VCs elided\n")
				goto queues
			}
			lines++
			if p := vc.Owner; p != nil {
				fmt.Fprintf(&b, "  %v len=%d knot=%v pkt=%d sent=%d arrived=%d %v\n",
					vc, vc.Len(), vc.Knotted, p.ID, p.SentFlits, p.ArrivedFlits, p.Msg)
			} else {
				fmt.Fprintf(&b, "  %v len=%d knot=%v no owner\n", vc, vc.Len(), vc.Knotted)
			}
		}
	}
queues:
	lines = 0
	for _, ni := range n.NIs {
		for q := 0; q < ni.Cfg.Queues; q++ {
			in, out := ni.InQueueLen(q), ni.OutQueueLen(q)
			if in == 0 && out == 0 && ni.InReserved(q) == 0 && ni.OutReserved(q) == 0 {
				continue
			}
			if lines >= maxLines {
				b.WriteString("  ... more occupied queues elided\n")
				return b.String()
			}
			lines++
			fmt.Fprintf(&b, "  ni%d.q%d: in=%d(+%d res) out=%d(+%d res) backlog=%d pending=%d\n",
				ni.Cfg.Endpoint, q, in, ni.InReserved(q), out, ni.OutReserved(q),
				ni.SourceBacklog(), ni.PendingGenLen())
		}
	}
	return b.String()
}
