// Golden-run digests: a single 64-bit fingerprint of a run's complete
// delivery log. Because the simulator is deterministic, any behavioural
// change — ordering, latency, recovery decisions — perturbs the digest,
// making it a one-line regression oracle (`netsim -digest`) cheap enough to
// pin in CI for a matrix of configurations.

package check

import (
	"fmt"

	"repro/internal/fnv1a"
	"repro/internal/message"
	"repro/internal/network"
)

// Digest accumulates an order-sensitive FNV-1a hash over every delivery in a
// run. Two runs produce equal digests iff they delivered the same messages,
// in the same order, at the same cycles, with the same recovery history.
type Digest struct {
	hash  uint64
	count int64
}

// AttachDigest installs a delivery digest on a built network by wrapping the
// NI delivery hooks. Attach before stepping so the log is complete.
func AttachDigest(n *network.Network) *Digest {
	d := &Digest{hash: fnv1a.Offset}
	for _, ni := range n.NIs {
		h := &ni.Cfg.Hooks
		prev := h.Delivered
		h.Delivered = func(m *message.Message, now int64) {
			d.observe(m, now)
			if prev != nil {
				prev(m, now)
			}
		}
	}
	return d
}

// observe folds one delivery into the hash: when it happened, which protocol
// step it was, and every flag the deadlock-handling machinery may have set
// on the way.
func (d *Digest) observe(m *message.Message, now int64) {
	d.count++
	var flags int64
	if m.Backoff {
		flags |= 1
	}
	if m.Nack {
		flags |= 2
	}
	if m.Rescued {
		flags |= 4
	}
	if m.Deflected {
		flags |= 8
	}
	if m.Preallocated {
		flags |= 16
	}
	for _, v := range [...]int64{now, int64(m.Txn), int64(m.Hop), int64(m.Branch),
		int64(m.Type), flags, int64(m.Retries), int64(m.Src), int64(m.Dst),
		int64(m.Flits), m.Created} {
		d.hash = fnv1a.Uint64(d.hash, uint64(v))
	}
}

// Sum returns the current digest value.
func (d *Digest) Sum() uint64 { return d.hash }

// Count returns the number of deliveries folded in.
func (d *Digest) Count() int64 { return d.count }

// String renders the digest as 16 hex digits, the form printed by
// `netsim -digest` and pinned in the golden-digest table.
func (d *Digest) String() string { return fmt.Sprintf("%016x", d.hash) }
