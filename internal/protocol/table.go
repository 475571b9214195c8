package protocol

import (
	"slices"

	"repro/internal/ckpt"
	"repro/internal/message"
)

// Table is the global registry of in-flight transactions, shared by every
// network interface so that servicing a message can resolve its transaction
// and derive subordinates.
type Table struct {
	txns map[message.TxnID]*Transaction
}

// NewTable returns an empty transaction table.
func NewTable() *Table {
	return &Table{txns: make(map[message.TxnID]*Transaction)}
}

// Add registers a transaction.
func (t *Table) Add(txn *Transaction) { t.txns[txn.ID] = txn }

// Get returns the transaction for an ID; it panics on an unknown ID, which
// always indicates a simulator bug (messages cannot outlive their
// transactions).
func (t *Table) Get(id message.TxnID) *Transaction {
	txn, ok := t.txns[id]
	if !ok {
		panic("protocol: unknown transaction")
	}
	return txn
}

// Lookup returns the transaction for an ID without Get's panic; ok is false
// for unknown IDs. Diagnostic consumers (the invariant checker) use it to
// report orphaned messages instead of crashing mid-walk.
func (t *Table) Lookup(id message.TxnID) (*Transaction, bool) {
	txn, ok := t.txns[id]
	return txn, ok
}

// ForEach visits every in-flight transaction. Iteration order is undefined
// (map order); callers needing determinism must sort.
func (t *Table) ForEach(f func(*Transaction)) {
	for _, txn := range t.txns {
		f(txn)
	}
}

// Remove deletes a completed transaction, bounding table growth.
func (t *Table) Remove(id message.TxnID) { delete(t.txns, id) }

// Len returns the number of registered (in-flight) transactions.
func (t *Table) Len() int { return len(t.txns) }

// Checkpoint names the in-flight transactions (see package ckpt), ascending
// by ID; p resolves their templates. A restore empties the table and fills it
// with fresh transactions.
func (t *Table) Checkpoint(c *ckpt.C, p *Pattern) {
	if c.Reading() {
		clear(t.txns)
		for n := c.Len(0); n > 0; n-- {
			txn := new(Transaction)
			txn.Checkpoint(c, p)
			t.txns[txn.ID] = txn
		}
		return
	}
	ids := make([]message.TxnID, 0, len(t.txns))
	for id := range t.txns {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	c.Len(len(ids))
	for _, id := range ids {
		t.txns[id].Checkpoint(c, p)
	}
}
