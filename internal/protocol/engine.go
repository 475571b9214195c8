package protocol

import (
	"fmt"
	"slices"

	"repro/internal/ckpt"
	"repro/internal/message"
)

// Lengths gives packet lengths in flits by role in the protocol, matching
// Table 2's defaults: short request packets and long data-carrying replies.
// Backoff replies are short control replies.
type Lengths struct {
	Request int
	Reply   int
	Backoff int
}

// DefaultLengths are the paper's Table 2 values (4-flit requests, 20-flit
// replies) with 4-flit backoff replies.
var DefaultLengths = Lengths{Request: 4, Reply: 20, Backoff: 4}

// Validate checks that every packet has at least one flit.
func (l Lengths) Validate() error {
	if l.Request <= 0 || l.Reply <= 0 || l.Backoff <= 0 {
		return fmt.Errorf("protocol: non-positive packet length in Lengths %+v", l)
	}
	return nil
}

// For returns the flit length of a message of the given type under a style.
func (l Lengths) For(style Style, t message.Type) int {
	if style.ClassOf(t) == message.ClassRequest {
		return l.Request
	}
	return l.Reply
}

// Transaction is one runtime traversal of a dependency chain: the
// participants chosen for each role plus completion bookkeeping.
type Transaction struct {
	ID        message.TxnID
	Tmpl      *Template
	Requester int
	Home      int
	// Thirds holds the third-party endpoint per fanout branch (length =
	// fanout width; length 1 for linear chains).
	Thirds []int
	// Created is the cycle the transaction was generated at the requester.
	Created int64
	// Completed counts final-step messages delivered so far; the
	// transaction is complete when Completed == len(Thirds) branches'
	// final messages (or 1 for templates without fanout... which is the
	// same thing since len(Thirds) is always >= 1).
	Completed int
	// Deflections counts backoff replies issued for this transaction.
	Deflections int
	// Messages counts every message created for this transaction,
	// including backoff replies.
	Messages int
	// FinishedAt is the delivery cycle of the last final-step message, or
	// -1 while in flight.
	FinishedAt int64

	// released guards against double-release through the engine free list.
	released bool
}

// Checkpoint names the transaction's canonical state (see package ckpt); the
// template is written as its index in p. Only in-flight transactions are
// reachable, so the release guard is not state.
func (t *Transaction) Checkpoint(c *ckpt.C, p *Pattern) {
	ckpt.Int(c, &t.ID)
	tmpl := slices.Index(p.Templates, t.Tmpl)
	ckpt.Int(c, &tmpl)
	if c.Reading() {
		t.Tmpl = p.Templates[tmpl]
	}
	ckpt.Int(c, &t.Requester)
	ckpt.Int(c, &t.Home)
	ckpt.Slice(c, &t.Thirds, func(third *int) { ckpt.Int(c, third) })
	ckpt.Int(c, &t.Completed)
	ckpt.Int(c, &t.Deflections)
	if c.Unhashed() {
		ckpt.Int(c, &t.Created)
		ckpt.Int(c, &t.Messages)
		ckpt.Int(c, &t.FinishedAt)
	}
}

// Released reports whether the transaction currently sits on the engine's
// free list. A released transaction reachable from the table (or from any
// live message) is a use-after-release; the runtime invariant checker looks
// for exactly this.
func (t *Transaction) Released() bool { return t.released }

// Width returns the fanout width (number of branches).
func (t *Transaction) Width() int { return len(t.Thirds) }

// Done reports whether every branch's terminating message has been
// delivered.
func (t *Transaction) Done() bool { return t.Completed >= t.Width() }

// Engine creates transactions from a pattern and derives each message's
// subordinates, implementing the dependency semantics the memory controllers
// execute. It is purely mechanical — the NI model decides *when* to service
// messages; the engine decides *what* each service produces.
type Engine struct {
	Pattern *Pattern
	Lengths Lengths
	nextTxn message.TxnID

	// pool, when set, recycles message objects; a nil pool means plain
	// allocation (message.Pool methods are nil-safe).
	pool *message.Pool
	// freeTxns recycles completed Transaction objects, including their
	// Thirds backing arrays.
	freeTxns []*Transaction
}

// NextTxnID returns the last transaction ID the engine handed out.
func (e *Engine) NextTxnID() message.TxnID { return e.nextTxn }

// Checkpoint names the engine's state beyond its immutable pattern and
// lengths (see package ckpt): the transaction ID counter. The free list holds
// no observable state (NewTransaction fully resets recycled objects).
func (e *Engine) Checkpoint(c *ckpt.C) {
	if c.Unhashed() {
		ckpt.Int(c, &e.nextTxn)
	}
}

// SetPool installs a message free list; subsequently built messages are
// recycled through it.
func (e *Engine) SetPool(p *message.Pool) { e.pool = p }

// NewEngine builds an engine for a validated pattern.
func NewEngine(p *Pattern, l Lengths) (*Engine, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	return &Engine{Pattern: p, Lengths: l}, nil
}

// PickTemplate selects a template index from the pattern's weights given a
// uniform sample u in [0,1).
func (e *Engine) PickTemplate(u float64) *Template {
	var sum float64
	for _, w := range e.Pattern.Weights {
		sum += w
	}
	x := u * sum
	for i, w := range e.Pattern.Weights {
		x -= w
		if x < 0 {
			return e.Pattern.Templates[i]
		}
	}
	return e.Pattern.Templates[len(e.Pattern.Templates)-1]
}

// NewTransaction creates a transaction for the given participants. thirds
// must have length equal to the template's fanout width (1 for linear
// chains); entries are the endpoints playing RoleThird per branch.
func (e *Engine) NewTransaction(tmpl *Template, requester, home int, thirds []int, now int64) *Transaction {
	_, width := tmpl.FanoutIndex()
	if len(thirds) != width {
		panic(fmt.Sprintf("protocol: template %s needs %d thirds, got %d", tmpl.Name, width, len(thirds)))
	}
	e.nextTxn++
	var tr *Transaction
	var th []int
	if n := len(e.freeTxns); n > 0 {
		tr = e.freeTxns[n-1]
		e.freeTxns = e.freeTxns[:n-1]
		th = append(tr.Thirds[:0], thirds...) // reuse the backing array
	} else {
		tr = new(Transaction)
		th = append([]int(nil), thirds...)
	}
	*tr = Transaction{
		ID: e.nextTxn, Tmpl: tmpl,
		Requester: requester, Home: home,
		Thirds:  th,
		Created: now, FinishedAt: -1,
	}
	return tr
}

// ReleaseTxn returns a transaction to the engine's free list. Callers must
// have removed every live reference first (in the simulator: after the
// transaction table entry is deleted on completion).
func (e *Engine) ReleaseTxn(t *Transaction) {
	if e == nil || t == nil {
		return
	}
	if t.released {
		panic("protocol: double ReleaseTxn")
	}
	t.released = true
	e.freeTxns = append(e.freeTxns, t)
}

// endpointFor resolves a role to an endpoint for a given branch.
func (t *Transaction) endpointFor(role Role, branch int) int {
	switch role {
	case RoleRequester:
		return t.Requester
	case RoleHome:
		return t.Home
	default:
		return t.Thirds[branch]
	}
}

// stepPreallocated reports whether the receiver of step i has already acted
// in the chain and therefore holds preallocated sink resources (MSHRs) for
// the message: the requester always has (it allocated when issuing m1), and
// the home has for any step after it forwarded (it allocated when emitting
// step 1). Third parties receive fresh work and have not preallocated.
func stepPreallocated(tmpl *Template, step int) bool {
	switch tmpl.Steps[step].Dest {
	case RoleRequester:
		return true
	case RoleHome:
		return step > 0
	default:
		return false
	}
}

// buildStep materializes the message for (step, branch) of a transaction.
func (e *Engine) buildStep(t *Transaction, step, branch int, src int, now int64) *message.Message {
	s := t.Tmpl.Steps[step]
	dst := t.endpointFor(s.Dest, branch)
	m := e.pool.NewMessage(t.ID, s.Type, step, src, dst, e.Lengths.For(e.Pattern.Style, s.Type), now)
	m.Branch = branch
	m.Preallocated = stepPreallocated(t.Tmpl, step)
	t.Messages++
	return m
}

// FirstMessage returns the original request (m1) of a transaction.
func (e *Engine) FirstMessage(t *Transaction, now int64) *message.Message {
	return e.buildStep(t, 0, 0, t.Requester, now)
}

// IsTerminating reports whether servicing m produces no subordinates.
func (e *Engine) IsTerminating(t *Transaction, m *message.Message) bool {
	if m.Backoff || m.Nack {
		return false // the receiver must re-issue the killed/deflected step
	}
	return m.Hop == len(t.Tmpl.Steps)-1
}

// Subordinates returns the messages generated by servicing m at its
// destination. For a backoff reply this is the deflected step re-issued from
// the requester. For the step before a fanout point this is one message per
// branch. For a terminating message it is nil.
func (e *Engine) Subordinates(t *Transaction, m *message.Message, now int64) []*message.Message {
	return e.AppendSubordinates(nil, t, m, now)
}

// AppendSubordinates appends the messages Subordinates would return to out
// and returns the extended slice. Hot-path callers pass a retained scratch
// slice truncated to length 0 so servicing a message allocates nothing.
func (e *Engine) AppendSubordinates(out []*message.Message, t *Transaction, m *message.Message, now int64) []*message.Message {
	if m.Nack {
		return append(out, e.reissueAfterNack(t, m, now))
	}
	if m.Backoff {
		start := len(out)
		out = e.appendStep(out, t, m.ReissueStep, t.Requester, now)
		for _, s := range out[start:] {
			s.Deflected = true
		}
		return out
	}
	next := m.Hop + 1
	if next >= len(t.Tmpl.Steps) {
		return out
	}
	fi, _ := t.Tmpl.FanoutIndex()
	if fi >= 0 && next > fi {
		// Past the fanout point: continue only this branch.
		return append(out, e.buildStep(t, next, m.Branch, m.Dst, now))
	}
	return e.appendStep(out, t, next, m.Dst, now)
}

// appendStep materializes step `step` from sender src, fanning out if step is
// the fanout point.
func (e *Engine) appendStep(out []*message.Message, t *Transaction, step, src int, now int64) []*message.Message {
	fi, width := t.Tmpl.FanoutIndex()
	if fi == step && width > 1 {
		for b := 0; b < width; b++ {
			out = append(out, e.buildStep(t, step, b, src, now))
		}
		return out
	}
	return append(out, e.buildStep(t, step, 0, src, now))
}

// Backoff converts the servicing of m at the home into a backoff reply (BRP)
// to the requester, the deflective-recovery action: the home sheds the
// obligation to emit step m.Hop+1, which the requester will re-issue upon
// sinking the BRP. The BRP is always reply-class and always preallocated
// (the Origin2000 preallocates reply-queue space for all outstanding
// requests).
func (e *Engine) Backoff(t *Transaction, m *message.Message, now int64) *message.Message {
	brp := e.pool.NewMessage(t.ID, message.M2, m.Hop, m.Dst, t.Requester, e.Lengths.Backoff, now)
	brp.Backoff = true
	brp.ReissueStep = m.Hop + 1
	brp.Preallocated = true
	brp.Branch = m.Branch
	t.Deflections++
	t.Messages++
	return brp
}

// Nack converts the servicing of m at its destination into a negative
// acknowledgement back to m's sender, the regressive ("abort-and-retry")
// recovery action of Section 2.2: the destination kills the head message
// and the sender re-injects it. The NACK is a short reply-class control
// message and sinks via the sender's preallocated tracking state; servicing
// it re-issues the killed step unchanged. Unlike deflection, nothing is
// shed — the transaction pays a full NACK round plus a retraversal.
func (e *Engine) Nack(t *Transaction, m *message.Message, now int64) *message.Message {
	nack := e.pool.NewMessage(t.ID, message.M2, m.Hop, m.Dst, m.Src, e.Lengths.Backoff, now)
	nack.Nack = true
	nack.ReissueStep = m.Hop
	nack.Branch = m.Branch
	nack.Preallocated = true
	nack.Retries = m.Retries + 1
	t.Messages++
	return nack
}

// reissueAfterNack rebuilds the killed step from its original sender.
func (e *Engine) reissueAfterNack(t *Transaction, nack *message.Message, now int64) *message.Message {
	step := nack.ReissueStep
	retry := e.buildStep(t, step, nack.Branch, nack.Dst, now)
	retry.Deflected = true // counted as recovery-induced traffic
	retry.Retries = nack.Retries
	return retry
}

// WouldGenerateClass returns the class (under the pattern's style) of the
// subordinate that servicing m would produce, and false if m is terminating.
// Deflective recovery uses this to decide whether the head of a blocked
// request queue is deflectable (its subordinate is request-class).
func (e *Engine) WouldGenerateClass(t *Transaction, m *message.Message) (message.Class, bool) {
	if m.Backoff {
		return e.Pattern.Style.ClassOf(t.Tmpl.Steps[m.ReissueStep].Type), true
	}
	next := m.Hop + 1
	if next >= len(t.Tmpl.Steps) {
		return 0, false
	}
	return e.Pattern.Style.ClassOf(t.Tmpl.Steps[next].Type), true
}

// NextStepInfo describes what servicing m will produce: the subordinate's
// generic type, how many subordinate messages are generated (the fanout
// width when the next step fans out, else 1), and whether the subordinate is
// itself terminating. ok is false when m is terminating.
func (e *Engine) NextStepInfo(t *Transaction, m *message.Message) (typ message.Type, count int, subTerminating, ok bool) {
	next := m.Hop + 1
	if m.Backoff || m.Nack {
		next = m.ReissueStep
	} else if next >= len(t.Tmpl.Steps) {
		return 0, 0, false, false
	}
	s := t.Tmpl.Steps[next]
	count = 1
	if fi, width := t.Tmpl.FanoutIndex(); fi == next && width > 1 && !m.Nack {
		count = width
	}
	return s.Type, count, next == len(t.Tmpl.Steps)-1, true
}

// ClassOf returns the virtual-network class of a message under the pattern's
// style. Backoff replies are always reply-class.
func (e *Engine) ClassOf(m *message.Message) message.Class {
	if m.Backoff || m.Nack {
		return message.ClassReply
	}
	return e.Pattern.Style.ClassOf(m.Type)
}

// RecordDelivery updates transaction completion state when a terminating
// message is sunk. It returns true if this delivery completed the
// transaction.
func (e *Engine) RecordDelivery(t *Transaction, m *message.Message, now int64) bool {
	if m.Backoff || m.Hop != len(t.Tmpl.Steps)-1 {
		return false
	}
	t.Completed++
	if t.Done() {
		t.FinishedAt = now
		return true
	}
	return false
}
