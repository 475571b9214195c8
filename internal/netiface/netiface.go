// Package netiface models the network interface of each processing node: the
// input and output message queues (shared, per-class, or per-type, Table 2
// default capacity 16 messages), the memory controller that services queued
// messages (40-clock service time) and generates their subordinate messages,
// the MSHR preallocation path that lets awaited replies sink without queue
// slots, injection and ejection flit streaming, and the endpoint
// potential-deadlock detector (queues full beyond a threshold with a
// non-terminating head, Section 2.2's three conditions).
package netiface

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/message"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/router"
)

// QueueMode selects how message queues are partitioned at endpoints.
type QueueMode int

const (
	// QueueShared uses one input and one output queue for all types (the
	// progressive-recovery default).
	QueueShared QueueMode = iota
	// QueuePerClass uses one queue pair per request/reply class (the
	// deflective-recovery / Origin2000 arrangement).
	QueuePerClass
	// QueuePerType uses one queue pair per generic message type (required
	// by strict avoidance; the "QA" configuration of Figure 11 when used
	// with DR or PR).
	QueuePerType
)

func (m QueueMode) String() string {
	switch m {
	case QueueShared:
		return "shared"
	case QueuePerClass:
		return "per-class"
	default:
		return "per-type"
	}
}

// QueueDefault asks for the handling scheme's canonical arrangement.
const QueueDefault QueueMode = -1

// queueModeNames is the one table of the names front ends accept (netsim
// -qmode, RunSpec queue_mode), indexed by mode+1.
var queueModeNames = [...]string{"default", "shared", "class", "type"}

// QueueModeByName parses a front-end queue-mode name.
func QueueModeByName(s string) (QueueMode, error) {
	for i, name := range queueModeNames {
		if s == name {
			return QueueMode(i - 1), nil
		}
	}
	return 0, fmt.Errorf("netiface: unknown queue mode %q (want %s)", s, strings.Join(queueModeNames[:], ", "))
}

// Valid reports whether m is QueueDefault or one of the three arrangements.
func (m QueueMode) Valid() bool { return m >= QueueDefault && m <= QueuePerType }

// Hooks are callbacks the network layer installs to observe NI events.
type Hooks struct {
	// Injected fires when a message's first flit enters the network.
	Injected func(m *message.Message, now int64)
	// Delivered fires when a message fully arrives at its destination NI,
	// whether over normal channels or the recovery lane.
	Delivered func(m *message.Message, now int64)
	// TxnComplete fires when the terminating message of a transaction
	// sinks.
	TxnComplete func(t *protocol.Transaction, now int64)
	// Detect fires when the endpoint detector's conditions have held for
	// the configured threshold on input queue q. The handling scheme
	// decides the recovery action.
	Detect func(ni *NI, q int, now int64)
	// RescueServiced fires when the memory controller finishes servicing a
	// message on behalf of the rescue engine; subs are its subordinates,
	// which the rescue engine routes (output queue or deadlock message
	// buffer).
	RescueServiced func(ni *NI, m *message.Message, subs []*message.Message, now int64)
}

// Config parameterizes one NI.
type Config struct {
	// Endpoint is this NI's dense endpoint ID.
	Endpoint int
	// Queues is the number of input/output queue pairs.
	Queues int
	// QueueIndex maps a message type (and backoff flag) to a queue index.
	QueueIndex func(typ message.Type, backoff bool) int
	// QueueCap is the per-queue capacity in messages.
	QueueCap int
	// ServiceTime is the memory controller occupancy per serviced message.
	ServiceTime int
	// DetectThreshold is the number of consecutive cycles the detector's
	// conditions must hold before firing (the paper assumes 25).
	DetectThreshold int
	// RetryBackoff delays re-injection of a message killed by regressive
	// recovery by this many cycles plus a deterministic per-transaction
	// jitter of the same magnitude; zero applies no delay.
	RetryBackoff int64
	// InjectVCs returns the virtual-channel indices a message may claim on
	// the injection channel (the scheme's partition for its type).
	InjectVCs func(m *message.Message) []int
	// Engine and Table resolve transactions and derive subordinates.
	Engine *protocol.Engine
	Table  *protocol.Table
	// NextPacketID allocates globally unique packet IDs.
	NextPacketID func() message.PacketID
	// Pool recycles message and packet objects; nil falls back to plain
	// allocation.
	Pool  *message.Pool
	Hooks Hooks
}

type outEntry struct {
	msg *message.Message
	pkt *message.Packet
	// vc caches the injection VC claimed by pkt once it reaches the queue
	// head, saving a per-cycle scan of the channel's VCs. It can never go
	// stale: the entry leaves the queue when the tail flit is staged (the
	// claim outlives the entry) and every rescue/fault evacuation of a
	// claimed VC runs AbortInjection, which pops the entry too.
	vc *router.VC
}

// pendingEntry is an MSHR-generated subordinate waiting for output-queue
// space; readyAt additionally delays retries of killed messages (regressive
// recovery's randomized backoff, without which retries immediately re-form
// the deadlock they escaped).
type pendingEntry struct {
	msg     *message.Message
	readyAt int64
}

// NI is one network interface instance.
type NI struct {
	Cfg Config

	// Inject is the NI-to-router injection channel (NI stages flits into
	// it; the router consumes). Eject is the router-to-NI ejection channel
	// (router stages; NI consumes). Both are wired by the network layer.
	Inject *router.Channel
	Eject  *router.Channel

	sourceQ []*message.Message
	outQ    [][]outEntry
	outRes  []int
	inQ     [][]*message.Message
	inAlloc []int

	pendingGen []pendingEntry

	ctrlBusyUntil  int64
	ctrlMsg        *message.Message
	ctrlFromRescue bool

	rescueReq *message.Message

	streak []int64
	// detectFill is detectFillFraction of QueueCap as a slot count, fixed
	// at construction.
	detectFill int

	// Bus receives queue-full trace events; nil when tracing is off, one
	// branch per refusal.
	Bus *obs.Bus
	// inFullNoted/outFullNoted dedupe queue-full events: one per blockage,
	// re-armed when the queue sheds an entry.
	inFullNoted  []bool
	outFullNoted []bool

	ctrlRR int
	injRR  int
	ejRR   int

	// subsBuf and sinkBuf are retained scratch slices for subordinate
	// generation (controller and MSHR sink paths respectively — they can be
	// live at the same time, hence two), keeping message servicing
	// allocation-free.
	subsBuf []*message.Message
	sinkBuf []*message.Message

	// WantRescue is set by the handling scheme when an endpoint detection
	// fired and progressive recovery should capture the token here.
	WantRescue bool

	// StallUntil suspends the whole NI pipeline (ejection drain, memory
	// controller, injection, detection) while now < StallUntil — the
	// NI-stall fault. The zero value means no stall.
	StallUntil int64

	// ServicedCount counts normal controller services (for utilization
	// statistics); DeflectCount counts deflection pops performed here.
	ServicedCount int64
	DeflectCount  int64

	// wake notifies the network's active-set sweep that an external event
	// (generated traffic, a recovery-lane delivery, a rescue request, an
	// aborted injection) touched this NI, so it must be stepped again. A
	// spurious wake is always safe — stepping an idle NI is a pure
	// round-robin rotation — so every site calls it unconditionally.
	wake func()
}

// New constructs an NI from its config.
func New(cfg Config) *NI {
	if cfg.Queues <= 0 || cfg.QueueCap <= 0 || cfg.ServiceTime <= 0 {
		panic(fmt.Sprintf("netiface: bad config %+v", cfg))
	}
	ni := &NI{Cfg: cfg}
	ni.outQ = make([][]outEntry, cfg.Queues)
	ni.outRes = make([]int, cfg.Queues)
	ni.inQ = make([][]*message.Message, cfg.Queues)
	ni.inAlloc = make([]int, cfg.Queues)
	ni.streak = make([]int64, cfg.Queues)
	ni.detectFill = detectFillSlots(cfg.QueueCap)
	ni.inFullNoted = make([]bool, cfg.Queues)
	ni.outFullNoted = make([]bool, cfg.Queues)
	return ni
}

// noteQueueFull traces the first refusal of a blockage on queue q for lack of
// space (out=true for the output side: the controller or source could not
// place a message; out=false for the input side: an ejecting header found no
// slot).
func (n *NI) noteQueueFull(q int, now int64, out bool) {
	if n.Bus == nil {
		return
	}
	noted, aux := n.inFullNoted, int64(0)
	if out {
		noted, aux = n.outFullNoted, 1
	}
	if noted[q] {
		return
	}
	noted[q] = true
	n.Bus.Emit(obs.Event{Cycle: now, Kind: obs.KindQueueFull, Node: n.Cfg.Endpoint, Arg: int64(q), Aux: aux})
}

// queueOf maps a message to its queue index.
func (n *NI) queueOf(m *message.Message) int {
	return n.Cfg.QueueIndex(m.Type, m.Backoff || m.Nack)
}

// EnqueueSource adds a newly generated request to the (unbounded) source
// queue feeding the output queues; open-loop generation measures source
// waiting time as part of message latency.
func (n *NI) EnqueueSource(m *message.Message) {
	n.sourceQ = append(n.sourceQ, m)
	if n.wake != nil {
		n.wake()
	}
}

// SetWakeHook installs the network's active-set notification callback.
func (n *NI) SetWakeHook(fn func()) { n.wake = fn }

// SourceBacklog returns the number of generated requests not yet accepted
// into an output queue.
func (n *NI) SourceBacklog() int { return len(n.sourceQ) }

// OutSpace reports whether output queue q can accept k more messages beyond
// existing content and reservations.
func (n *NI) OutSpace(q, k int) bool {
	return len(n.outQ[q])+n.outRes[q]+k <= n.Cfg.QueueCap
}

// InSpace reports whether input queue q has a free slot (counting slots
// already promised to in-flight ejections).
func (n *NI) InSpace(q int) bool {
	return len(n.inQ[q])+n.inAlloc[q] < n.Cfg.QueueCap
}

// InQueueLen returns the committed occupancy of input queue q.
func (n *NI) InQueueLen(q int) int { return len(n.inQ[q]) }

// OutQueueLen returns the occupancy of output queue q.
func (n *NI) OutQueueLen(q int) int { return len(n.outQ[q]) }

// Head returns the message at the head of input queue q.
func (n *NI) Head(q int) (*message.Message, bool) {
	if len(n.inQ[q]) == 0 {
		return nil, false
	}
	return n.inQ[q][0], true
}

// PopHead removes and returns the head of input queue q. Recovery actions
// (deflection, rescue initiation) use this; it panics on an empty queue.
func (n *NI) PopHead(q int) *message.Message {
	if n.wake != nil {
		n.wake()
	}
	return n.popInQ(q)
}

// popInQ removes the head of input queue q in place. Shifting down (rather
// than reslicing off the front) preserves the backing array's capacity so
// steady-state queue churn never reallocates.
func (n *NI) popInQ(q int) *message.Message {
	s := n.inQ[q]
	m := s[0]
	copy(s, s[1:])
	s[len(s)-1] = nil
	n.inQ[q] = s[:len(s)-1]
	n.inFullNoted[q] = false
	return m
}

// popOutQ removes the head of output queue q in place, like popInQ.
func (n *NI) popOutQ(q int) {
	s := n.outQ[q]
	copy(s, s[1:])
	s[len(s)-1] = outEntry{}
	n.outQ[q] = s[:len(s)-1]
	n.outFullNoted[q] = false
}

// EnqueueOut places m directly into its output queue, creating its packet.
// The caller must have checked OutSpace. Used for backoff replies and for
// rescue subordinates that fit.
func (n *NI) EnqueueOut(m *message.Message) {
	q := n.queueOf(m)
	if !n.OutSpace(q, 1) {
		panic("netiface: EnqueueOut without space")
	}
	pkt := n.Cfg.Pool.NewPacket(n.Cfg.NextPacketID(), m)
	n.outQ[q] = append(n.outQ[q], outEntry{msg: m, pkt: pkt})
	if n.wake != nil {
		n.wake()
	}
}

// RequestRescueService asks the controller to service m with priority on
// behalf of the rescue engine ("the memory controller is preempted after it
// completes its current operation"). It returns false if a rescue service
// is already pending or in progress.
func (n *NI) RequestRescueService(m *message.Message) bool {
	if n.rescueReq != nil || (n.ctrlMsg != nil && n.ctrlFromRescue) {
		return false
	}
	n.rescueReq = m
	if n.wake != nil {
		n.wake()
	}
	return true
}

// RescueBusy reports whether a rescue service is pending or running.
func (n *NI) RescueBusy() bool {
	return n.rescueReq != nil || (n.ctrlMsg != nil && n.ctrlFromRescue)
}

// DeliverMessage is the common arrival path for a fully received message,
// from the ejection channel or the recovery lane: preallocated messages sink
// through the MSHR path (completing transactions or scheduling subordinate
// generation); everything else joins its input queue. reserved indicates the
// input-queue slot was already allocated at header time (normal ejection).
func (n *NI) DeliverMessage(m *message.Message, now int64, reserved bool) {
	m.Delivered = now
	if n.wake != nil {
		n.wake()
	}
	if n.Cfg.Hooks.Delivered != nil {
		n.Cfg.Hooks.Delivered(m, now)
	}
	if m.Preallocated {
		n.sinkPreallocated(m, now)
		return
	}
	q := n.queueOf(m)
	if reserved {
		n.inAlloc[q]--
	}
	n.inQ[q] = append(n.inQ[q], m)
}

// sinkPreallocated consumes a message for which this endpoint holds
// preallocated resources: terminating messages complete their transaction;
// non-terminating ones (a reply awaited by the home, or a backoff reply at
// the requester) schedule their subordinates through the MSHR completion
// path, which needs no controller occupancy but does wait for output-queue
// space.
func (n *NI) sinkPreallocated(m *message.Message, now int64) {
	txn := n.Cfg.Table.Get(m.Txn)
	if n.Cfg.Engine.IsTerminating(txn, m) {
		if n.Cfg.Engine.RecordDelivery(txn, m, now) {
			if n.Cfg.Hooks.TxnComplete != nil {
				n.Cfg.Hooks.TxnComplete(txn, now)
			}
			n.Cfg.Table.Remove(txn.ID)
			n.Cfg.Engine.ReleaseTxn(txn)
		}
		n.Cfg.Pool.PutMessage(m)
		return
	}
	subs := n.Cfg.Engine.AppendSubordinates(n.sinkBuf[:0], txn, m, now)
	n.sinkBuf = subs
	readyAt := now
	if m.Nack && n.Cfg.RetryBackoff > 0 {
		// Exponential backoff with deterministic per-transaction jitter:
		// repeated kills spread retries out until contention clears.
		shift := m.Retries
		if shift > 6 {
			shift = 6
		}
		base := n.Cfg.RetryBackoff << uint(shift)
		readyAt = now + base + int64(m.Txn)%base
	}
	for _, sub := range subs {
		n.pendingGen = append(n.pendingGen, pendingEntry{msg: sub, readyAt: readyAt})
	}
	n.Cfg.Pool.PutMessage(m)
}

// Step runs one NI cycle.
func (n *NI) Step(now int64) {
	if now < n.StallUntil {
		return
	}
	n.drainEjection(now)
	n.controller(now)
	n.drainPendingGen(now)
	n.drainSource(now)
	n.inject(now)
	n.detect(now)
}

// drainEjection pulls at most one flit per cycle from the ejection channel,
// choosing round-robin among VCs whose front flit can progress: body flits
// always can; header flits need a sink (MSHR preallocation) or a free
// input-queue slot, which is claimed at header time so a worm never stalls
// mid-delivery for queue space.
func (n *NI) drainEjection(now int64) {
	if n.Eject == nil {
		return
	}
	occ := n.Eject.OccMask()
	if occ == 0 {
		n.ejRR++
		return
	}
	vcs := n.Eject.VCs
	j := n.ejRR % len(vcs)
	for k := 0; k < len(vcs); k, j = k+1, j+1 {
		if j == len(vcs) {
			j = 0
		}
		if occ>>uint(j)&1 == 0 {
			continue
		}
		vc := vcs[j]
		f, ok := vc.Front()
		if !ok {
			continue
		}
		m := f.Pkt.Msg
		if f.Head() && !m.Preallocated {
			q := n.queueOf(m)
			if !n.InSpace(q) {
				n.noteQueueFull(q, now, false)
				continue
			}
			n.inAlloc[q]++
		}
		vc.Dequeue(now)
		f.Pkt.ArrivedFlits++
		if f.Tail() {
			n.DeliverMessage(m, now, !m.Preallocated)
			// The tail dequeue released the ejection VC, so no live
			// reference to the packet remains.
			n.Cfg.Pool.PutPacket(f.Pkt)
		}
		n.ejRR++
		return
	}
	n.ejRR++
}

// controller advances the memory controller: finish the current service,
// then start the next (rescue requests take priority over queue service, and
// queue service requires output space for every subordinate, which is
// reserved up front).
func (n *NI) controller(now int64) {
	if n.ctrlMsg != nil && now >= n.ctrlBusyUntil {
		m := n.ctrlMsg
		fromRescue := n.ctrlFromRescue
		n.ctrlMsg = nil
		n.ctrlFromRescue = false
		txn := n.Cfg.Table.Get(m.Txn)
		subs := n.Cfg.Engine.AppendSubordinates(n.subsBuf[:0], txn, m, now)
		n.subsBuf = subs
		if fromRescue {
			if n.Cfg.Hooks.RescueServiced != nil {
				n.Cfg.Hooks.RescueServiced(n, m, subs, now)
			}
		} else {
			n.ServicedCount++
			for _, sub := range subs {
				q := n.queueOf(sub)
				n.outRes[q]--
				pkt := n.Cfg.Pool.NewPacket(n.Cfg.NextPacketID(), sub)
				n.outQ[q] = append(n.outQ[q], outEntry{msg: sub, pkt: pkt})
			}
			n.Cfg.Pool.PutMessage(m)
		}
	}
	if n.ctrlMsg != nil || now < n.ctrlBusyUntil {
		return
	}
	// Rescue service preempts queue service.
	if n.rescueReq != nil {
		n.ctrlMsg = n.rescueReq
		n.rescueReq = nil
		n.ctrlFromRescue = true
		n.ctrlBusyUntil = now + int64(n.Cfg.ServiceTime)
		return
	}
	// Pick the next serviceable input-queue head, round-robin across
	// queues for fairness between message types.
	for k := 0; k < n.Cfg.Queues; k++ {
		q := (n.ctrlRR + k) % n.Cfg.Queues
		if len(n.inQ[q]) == 0 {
			continue
		}
		m := n.inQ[q][0]
		txn := n.Cfg.Table.Get(m.Txn)
		typ, count, _, ok := n.Cfg.Engine.NextStepInfo(txn, m)
		if !ok {
			// Terminating messages never occupy input queues (they sink
			// via preallocation); treat defensively as directly
			// consumable.
			n.Cfg.Pool.PutMessage(n.popInQ(q))
			continue
		}
		subQ := n.Cfg.QueueIndex(typ, false)
		if !n.OutSpace(subQ, count) {
			n.noteQueueFull(subQ, now, true)
			continue
		}
		n.outRes[subQ] += count
		n.popInQ(q)
		n.ctrlMsg = m
		n.ctrlBusyUntil = now + int64(n.Cfg.ServiceTime)
		n.ctrlRR = q + 1
		return
	}
	n.ctrlRR++
}

// drainPendingGen moves MSHR-generated subordinates into their output queues
// as space (beyond reservations) and retry backoff permit, preserving order.
func (n *NI) drainPendingGen(now int64) {
	if len(n.pendingGen) == 0 {
		return
	}
	kept := n.pendingGen[:0]
	for _, e := range n.pendingGen {
		q := n.queueOf(e.msg)
		if now >= e.readyAt && n.OutSpace(q, 1) {
			pkt := n.Cfg.Pool.NewPacket(n.Cfg.NextPacketID(), e.msg)
			n.outQ[q] = append(n.outQ[q], outEntry{msg: e.msg, pkt: pkt})
		} else {
			if now >= e.readyAt {
				n.noteQueueFull(q, now, true)
			}
			kept = append(kept, e)
		}
	}
	n.pendingGen = kept
}

// drainSource admits generated requests into their output queue.
func (n *NI) drainSource(now int64) {
	for len(n.sourceQ) > 0 {
		m := n.sourceQ[0]
		q := n.queueOf(m)
		if !n.OutSpace(q, 1) {
			n.noteQueueFull(q, now, true)
			return
		}
		pkt := n.Cfg.Pool.NewPacket(n.Cfg.NextPacketID(), m)
		n.outQ[q] = append(n.outQ[q], outEntry{msg: m, pkt: pkt})
		copy(n.sourceQ, n.sourceQ[1:])
		n.sourceQ[len(n.sourceQ)-1] = nil
		n.sourceQ = n.sourceQ[:len(n.sourceQ)-1]
	}
}

// inject streams flits of output-queue heads into the injection channel: a
// head first claims an allowed free VC, then competing claimed heads share
// the channel's one-flit-per-cycle bandwidth round-robin. A message leaves
// its queue slot when its tail flit is staged.
func (n *NI) inject(now int64) {
	if n.Inject == nil {
		return
	}
	// Allocate VCs for queue heads that lack one.
	for q := 0; q < n.Cfg.Queues; q++ {
		if len(n.outQ[q]) == 0 || n.outQ[q][0].vc != nil {
			continue
		}
		e := n.outQ[q][0]
		for _, idx := range n.Cfg.InjectVCs(e.msg) {
			vc := n.Inject.VCs[idx]
			if vc.Owner == nil {
				vc.Owner = e.pkt
				n.outQ[q][0].vc = vc
				break
			}
		}
	}
	// Stream one flit from one claimed head.
	q := n.injRR % n.Cfg.Queues
	for k := 0; k < n.Cfg.Queues; k, q = k+1, q+1 {
		if q == n.Cfg.Queues {
			q = 0
		}
		if len(n.outQ[q]) == 0 {
			continue
		}
		e := n.outQ[q][0]
		vc := e.vc
		if vc == nil || !vc.SpaceFor() {
			continue
		}
		if e.pkt.SentFlits == 0 {
			e.msg.Injected = now
			if n.Cfg.Hooks.Injected != nil {
				n.Cfg.Hooks.Injected(e.msg, now)
			}
		}
		vc.Stage(message.Flit{Pkt: e.pkt, Idx: e.pkt.SentFlits})
		e.pkt.SentFlits++
		if e.pkt.SentFlits == e.msg.Flits {
			n.popOutQ(q)
		}
		n.injRR = q + 1
		return
	}
	n.injRR++
}

// AbortInjection removes pkt from the head of its output queue when the
// rescue engine evacuates a partially injected packet into the recovery
// lane: the un-sent remainder of the worm drains through the deadlock
// message buffer instead of the injection channel. It returns whether the
// packet was found streaming here.
func (n *NI) AbortInjection(pkt *message.Packet) bool {
	if n.wake != nil {
		n.wake()
	}
	for q := 0; q < n.Cfg.Queues; q++ {
		if len(n.outQ[q]) > 0 && n.outQ[q][0].pkt == pkt {
			n.popOutQ(q)
			pkt.SentFlits = pkt.Msg.Flits
			return true
		}
	}
	return false
}

// OutHead exposes the state of output queue q's head for the deadlock
// observer: the message, its packet, and the injection VC it has claimed
// (nil before allocation).
func (n *NI) OutHead(q int) (*message.Message, *message.Packet, *router.VC, bool) {
	if len(n.outQ[q]) == 0 {
		return nil, nil, nil, false
	}
	e := n.outQ[q][0]
	return e.msg, e.pkt, e.vc, true
}

// detectFillFraction is the queue-occupancy fraction beyond which a queue
// counts as "filled up beyond a threshold value" for the detector
// (condition 1). The paper's conditions speak of thresholds, not strict
// fullness: a deadlocked node whose last input slots simply never receive
// another ejection would otherwise escape detection.
const detectFillFraction = 0.75

// detectFillSlots converts detectFillFraction into a slot count of a queue
// of queueCap slots: at least one, at most all.
func detectFillSlots(queueCap int) int {
	return max(1, int(detectFillFraction*float64(queueCap)))
}

// detect evaluates the endpoint potential-deadlock conditions per input
// queue (Section 2.2): (1) the input queue and the subordinate's output
// queue both fill beyond a threshold (and the output lacks space for the
// head's subordinates), (2) the head generates a non-terminating message
// type, and (3) the situation persists beyond the time threshold. On
// firing, the streak resets so a persistent condition re-fires every
// threshold cycles (the paper's "minimum recovery action" resolves one
// message per detection).
func (n *NI) detect(now int64) {
	for q := 0; q < n.Cfg.Queues; q++ {
		if !n.detectArmed(q) {
			n.streak[q] = 0
			continue
		}
		n.streak[q]++
		if n.streak[q] > int64(n.Cfg.DetectThreshold) {
			n.streak[q] = 0
			if n.Cfg.Hooks.Detect != nil {
				n.Cfg.Hooks.Detect(n, q, now)
			}
		}
	}
}

// detectArmed reports whether conditions (1) and (2) hold on input queue q
// right now, so that a step would extend its streak.
func (n *NI) detectArmed(q int) bool {
	if len(n.inQ[q])+n.inAlloc[q] < n.detectFill || len(n.inQ[q]) == 0 {
		return false
	}
	m := n.inQ[q][0]
	txn := n.Cfg.Table.Get(m.Txn)
	typ, count, subTerm, ok := n.Cfg.Engine.NextStepInfo(txn, m)
	// "Sufficient amount of free space for the subordinate message(s)": a
	// fanout wider than the remaining space blocks the head just as a full
	// queue does.
	return ok && !subTerm && !n.OutSpace(n.Cfg.QueueIndex(typ, false), count)
}

// PendingGenLen reports the number of MSHR completions awaiting output
// space (used by drain-phase termination checks and tests).
func (n *NI) PendingGenLen() int { return len(n.pendingGen) }

// InReserved returns the number of input-queue slots of queue q promised to
// in-flight ejections (headers accepted whose worms are still arriving). The
// credit-accounting invariant requires 0 <= InReserved and
// InQueueLen+InReserved <= QueueCap.
func (n *NI) InReserved(q int) int { return n.inAlloc[q] }

// OutReserved returns the number of output-queue slots of queue q reserved
// by the memory controller for subordinates of the message it is servicing.
// The credit-accounting invariant requires 0 <= OutReserved and
// OutQueueLen+OutReserved <= QueueCap.
func (n *NI) OutReserved(q int) int { return n.outRes[q] }

// ForEachMessage visits every message this NI currently holds a live
// reference to: the source queue, output queues (with their packets), input
// queues, MSHR-generated subordinates awaiting output space, the message
// occupying the memory controller, and a pending rescue service request.
// pkt is non-nil only for output-queue entries. The callback must not mutate
// the NI; the invariant checker uses this walk for pool-safety and
// transaction-liveness checks.
func (n *NI) ForEachMessage(f func(m *message.Message, pkt *message.Packet)) {
	for _, m := range n.sourceQ {
		f(m, nil)
	}
	for q := range n.outQ {
		for _, e := range n.outQ[q] {
			f(e.msg, e.pkt)
		}
	}
	for q := range n.inQ {
		for _, m := range n.inQ[q] {
			f(m, nil)
		}
	}
	for _, e := range n.pendingGen {
		f(e.msg, nil)
	}
	if n.ctrlMsg != nil {
		f(n.ctrlMsg, nil)
	}
	if n.rescueReq != nil {
		f(n.rescueReq, nil)
	}
}

// Quiescent reports whether the NI holds no queued work at all.
func (n *NI) Quiescent() bool {
	if len(n.sourceQ) > 0 || len(n.pendingGen) > 0 || n.ctrlMsg != nil || n.rescueReq != nil {
		return false
	}
	for q := 0; q < n.Cfg.Queues; q++ {
		if len(n.inQ[q]) > 0 || len(n.outQ[q]) > 0 {
			return false
		}
	}
	return true
}

// Never is the wake cycle Dormant reports for an NI that nothing but an
// outside event will give work to.
const Never = math.MaxInt64

// Dormant reports whether every Step of this NI before cycle until would be a
// pure round-robin rotation, so that the network may stop stepping it and let
// SkipIdle account for the cycles it sleeps through — the deactivation
// condition. Nothing may be waiting on the sending side (source queue, MSHR
// completions, output queues), no committed ejection flit (drainEjection
// would do real work) and no rescue request; every detector streak must
// already be reset (a dense step zeroes a stale streak, and skipping that
// reset would let a later refill resume an old count and fire early) and no
// input queue may be extending one — with a small QueueCap and a wide fanout
// the controller's own output reservation can arm the detector over empty
// output queues. Then either the controller is free and every input queue is
// empty, which only an outside event ends (until is Never), or it is
// occupied, and the NI has nothing to do until the service completes at
// until, whatever waits in its input queues. In-flight ejection reservations
// (inAlloc) do not prevent sleep: the worm's next flit dirties the ejection
// channel, which wakes the NI. Every outside mutation of a dormant NI wakes it.
func (n *NI) Dormant() (until int64, ok bool) {
	if len(n.sourceQ) > 0 || len(n.pendingGen) > 0 || n.rescueReq != nil {
		return 0, false
	}
	if n.Eject != nil && n.Eject.OccMask() != 0 {
		return 0, false
	}
	for q := 0; q < n.Cfg.Queues; q++ {
		if len(n.outQ[q]) > 0 || n.streak[q] != 0 || (n.ctrlMsg == nil && len(n.inQ[q]) > 0) || n.detectArmed(q) {
			return 0, false
		}
	}
	if n.ctrlMsg != nil {
		return n.ctrlBusyUntil, true
	}
	return Never, true
}

// SkipIdle advances round-robin state by k cycles' worth of dormant steps in
// O(1). A Step of a Dormant NI mutates exactly the rotation cursors, each by
// one: every queue scan falls through and no detector arm holds. The
// controller returns before its rotation while it is occupied, so its cursor
// moves only when it is free; the state it is read from is the state the NI
// slept in, because nothing that wakes an NI touches the controller. The
// network calls this to catch a sleeping NI up before it re-enters the sweep,
// keeping arbitration byte-identical to dense stepping.
func (n *NI) SkipIdle(k int64) {
	if n.Eject != nil {
		n.ejRR += int(k)
	}
	if n.ctrlMsg == nil {
		n.ctrlRR += int(k)
	}
	if n.Inject != nil {
		n.injRR += int(k)
	}
}
